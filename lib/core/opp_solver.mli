(** The exact orthogonal packing decision procedure (OPP) with optional
    temporal precedence constraints — stage 3 of the paper's framework,
    preceded by bounds (stage 1) and a construction heuristic (stage 2).

    The branch-and-bound search enumerates packing classes: it
    repeatedly picks an undecided (pair, dimension), branches on
    {e component} (projections overlap) versus {e comparability}
    (projections disjoint), and propagates the packing-class conditions
    plus the D1/D2 orientation implications after every decision. A leaf
    is accepted only if an actual placement can be reconstructed and
    passes geometric validation, so a [Feasible] answer always carries a
    checked witness; [Infeasible] is exact, by exhaustion of the packing
    class space. *)

type outcome =
  | Feasible of Geometry.Placement.t
  | Infeasible
  | Timeout
      (** a budget expired: the node limit, the wall-clock deadline, or
          a cooperative {!options.interrupt} *)

(** One branching decision of the search: pair [(u, v)] in dimension
    [dim], [overlap] choosing component (projections overlap) versus
    comparability (projections disjoint). A sequence of decisions from
    the root is a compact subtree descriptor: replaying it on a fresh
    state reaches the same node ({!Parallel_solver.replay}). *)
type decision = {
  dim : int;
  u : int;
  v : int;
  overlap : bool;
}

(** Work-sharing hooks for the {!Parallel_solver} stealing kernel,
    called at branch points of the search ([None] everywhere else —
    the sequential path pays nothing).

    At every binary branch point the search first calls
    [offer ~path ~len ~alt]: [path] is the decision stack of this
    search (only the first [len] slots are meaningful — the decisions
    from the search root to the current node, outermost first; the
    array is reused across calls and must be copied if retained) and
    [alt] is the branch the search will explore {e second}. The hook
    either declines ([None], e.g. when the local deque already holds
    enough work) or queues the descriptor and returns a token.

    After the first branch returns, the search calls [reclaim token]:
    [true] means the descriptor was still in the local deque (nobody
    stole it) and has been removed — the search then runs the second
    branch in place on the live state, preserving the exact sequential
    DFS order; [false] means a thief owns that subtree and the node is
    done. Both hooks run on the search's own domain. *)
type share = {
  offer : path:decision array -> len:int -> alt:decision -> int option;
  reclaim : int -> bool;
}

type stats = {
  nodes : int; (** branch-and-bound nodes visited *)
  decisions : int;
      (** branch points expanded (not rendered by {!stats_json}) *)
  conflicts : int; (** propagation failures (pruned branches) *)
  leaves : int; (** fully decided states reached *)
  max_depth : int; (** deepest decision stack reached *)
  elapsed : float; (** wall-clock seconds spent in the solve *)
  by_bounds : bool; (** settled by stage-1 bounds *)
  by_heuristic : bool; (** settled by the stage-2 heuristic *)
  rules : Telemetry.rule_counters;
      (** where propagation time went: per-rule call/time counters plus
          the realization attempt count (opportunistic per-node tries
          and exact leaf checks combined) *)
  bounds : Telemetry.bound_counters;
      (** per-bound call/time/prune counters of the stage-1
          {!Bound_engine} root check: one call per registered bound up
          to the first refutation, empty when [use_bounds] is off. The
          search runs no bounds. *)
}

type options = {
  rules : Packing_state.rules; (** propagation toggles (ablations) *)
  use_bounds : bool; (** stage 1 *)
  use_heuristic : bool;
      (** stage 2. The construction heuristic only runs when
          {!Heuristic.supports} accepts the instance (3-dimensional,
          objective on the last axis, no spatial orders); anything else
          — strip packing, [d <> 3], per-axis order constraints — skips
          straight to the stage-3 search, whose verdict is exact either
          way. *)
  node_limit : int option; (** give up after this many nodes *)
  deadline : float option;
      (** absolute wall-clock deadline ([Unix.gettimeofday] scale);
          the search returns [Timeout] soon after it passes. Polled
          every few dozen nodes, so the overshoot is bounded by the
          cost of that many propagation steps. *)
  interrupt : (unit -> bool) option;
      (** cooperative cancellation: polled periodically alongside the
          deadline; returning [true] aborts the search with [Timeout].
          Used by {!Parallel_solver} to stop sibling workers once a
          definitive answer is known. *)
  progress_interval_s : float;
      (** wall-clock seconds between [on_heartbeat] firings (default
          1.0). Values [<= 0.0] fire at every poll tick — useful in
          tests, pathological in production. *)
  on_heartbeat : (Telemetry.progress -> unit) option;
      (** Periodic progress callback with a {!Telemetry.progress}
          snapshot (nodes, nodes/s, max depth, decided fraction, trail
          length). Fires on a wall-clock cadence of
          [progress_interval_s] seconds, checked at the node-poll
          granularity (every ~32 nodes), so the reporting rate does not
          depend on node throughput. The search blocks while it runs,
          so keep it cheap. In a parallel solve it may be invoked
          concurrently from several domains, each reporting its own
          worker-local counters. The optimization drivers ({!Problems})
          wrap it to inject the current bracket and gap. *)
  trace : Trace.t;
      (** structured event recorder threaded through the search, the
          bound engines, and propagation ({!Trace.null} = off) *)
}

val default_options : options

(** [solve ?options ?schedule instance container] decides whether the
    tasks fit into the container while respecting the precedence order.
    When [schedule] gives a fixed start time per task, the time
    dimension is pre-determined and only the spatial dimensions are
    searched — the paper's FixedS problems. The witness placement then
    uses equivalent (possibly compressed) start times with the same
    overlap structure; callers wanting the original start times can
    substitute them, spatial feasibility is preserved. *)
val solve :
  ?options:options ->
  ?schedule:int array ->
  Instance.t ->
  Geometry.Container.t ->
  outcome * stats

(** What stages 1 and 2 left to do. *)
type presolved =
  | Settled of outcome * stats
      (** the bounds refuted the instance, the heuristic placed it, or
          the stage-3 root failed propagation *)
  | Search of Packing_state.t * Telemetry.bound_counters
      (** stage 3 must search from this propagated root state; the
          counters are the stage-1 engine's *)

(** [presolve ?options ?schedule instance container] runs stage 1 (the
    {!Bound_engine} root check, if [use_bounds]), stage 2 (the heuristic,
    if [use_heuristic] and no [schedule]) and the stage-3 root
    propagation, recording [stage1-bounds]/[stage2-heuristic] phase and
    incumbent events on [options.trace]. {!solve} and
    {!Parallel_solver.solve} both start here. *)
val presolve :
  ?options:options ->
  ?schedule:int array ->
  Instance.t ->
  Geometry.Container.t ->
  presolved

(** [solve_state ?options ?depth_offset ?share state] runs the stage-3
    search alone, from an already-initialized (and possibly partially
    decided) {!Packing_state.t}. Stages 1 and 2 are skipped regardless
    of [options]; [depth_offset] credits decisions replayed into
    [state] before the call so [stats.max_depth] reflects the true
    depth. The state is consumed by the search (a [Feasible] exit does
    not unwind its trail); create a fresh one per call. [share]
    attaches the work-stealing hooks (see {!share}). This is the
    worker entry point of {!Parallel_solver}. *)
val solve_state :
  ?options:options ->
  ?depth_offset:int ->
  ?share:share ->
  Packing_state.t ->
  outcome * stats

(** [feasible instance container] is [solve] reduced to a boolean.
    [Error `Timeout] reports an exhausted budget instead of raising, so
    a budget-limited caller can distinguish "proved infeasible" from
    "gave up". *)
val feasible :
  ?options:options ->
  ?schedule:int array ->
  Instance.t ->
  Geometry.Container.t ->
  (bool, [ `Timeout ]) result

val pp_outcome : Format.formatter -> outcome -> unit
val pp_stats : Format.formatter -> stats -> unit

(** Stats as a {!Telemetry.json} value, for embedding into larger
    reports ({!Parallel_solver.report_to_json}). *)
val stats_json : stats -> Telemetry.json

(** One-line JSON rendering of a stats record (for [--stats json]). *)
val stats_to_json : stats -> string

(** Pointwise merge: counters add, depths and elapsed take the max,
    stage flags or. Used to aggregate per-worker reports. *)
val merge_stats : stats -> stats -> stats

(** All-zero stats — the unit of {!merge_stats}. *)
val empty_stats : stats
