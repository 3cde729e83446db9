(** Stage 1 of the paper's framework: cheap certificates that disprove
    a packing before any search starts.

    One registry of bound functions serves every layer: the root check
    of {!Opp_solver.solve} (which {!Parallel_solver.solve} shares),
    probe skipping and proven lower bounds in {!Problems}, and the
    pre-checks of {!Knapsack} and the baseline solvers. The search
    itself runs no bounds; it prunes by propagation alone.

    Every registered bound takes a (sub)instance plus a container and
    returns a typed {!verdict}:

    - [Infeasible c] — no packing exists; [c] is a serializable
      certificate naming the bound and the witnessing structure.
    - [Lower_bound t] — every packing into a container with the same
      spatial extents needs time extent at least [t] (with [t] no larger
      than the queried container's time extent — larger values are
      reported as [Infeasible]).
    - [Inconclusive] — the bound is silent.

    The bound families follow Fekete & Schepers: plain volume, per-axis
    serialization cliques (pairs that overflow the container in every
    axis but one must be disjoint along that one), dual-feasible-function
    (DFF) transformed volume with the [f_eps] and [u^(k)] families, and
    precedence-aware longest-path and energetic-reasoning time bounds.
    Every product of extents, areas or DFF targets saturates
    ({!Geometry.Saturating}), so a huge container never overflows into
    a false [Infeasible].

    An engine value carries per-bound call/time/prune counters; create
    one per solve (engines are not thread-safe) and merge snapshots with
    {!Telemetry.add_bound_counters}. *)

module Container = Geometry.Container

(** A serializable infeasibility certificate: the name of the bound that
    fired and a human-readable witness description. *)
type certificate = { bound : string; detail : string }

type verdict =
  | Infeasible of certificate
  | Lower_bound of int
      (** proven lower bound on the time-axis extent, given the
          container's spatial extents *)
  | Inconclusive

val certificate_json : certificate -> Telemetry.json
val verdict_json : verdict -> Telemetry.json
val pp_verdict : Format.formatter -> verdict -> unit

(** {1 Engine} *)

type t

(** Names of all registered bounds, in evaluation order (cheapest
    first): ["misfit"; "volume"; "critical-path"; "clique-time";
    "clique-space"; "dff-volume"; "dff-time"; "energetic"].
    ["clique-space"] covers every spatial axis; its certificate names
    the axis that fired. *)
val default_names : string list

(** [create ()] builds an engine with every default bound registered.
    [?names] restricts (and reorders) the registry. [?trace] records
    one {!Trace} bound-call event per evaluation, carrying the same
    measured duration the engine's own counters accumulate.
    @raise Invalid_argument on an unknown name. *)
val create : ?names:string list -> ?trace:Trace.t -> unit -> t

val names : t -> string list

(** Snapshot of the per-bound call/time/prune counters accumulated by
    this engine value. A prune is an [Infeasible] verdict. *)
val counters : t -> Telemetry.bound_counters

(** [check t inst container] runs every registered bound in order and
    returns the first [Infeasible] certificate, otherwise the strongest
    [Lower_bound], otherwise [Inconclusive].
    @raise Invalid_argument on a dimension mismatch. *)
val check : t -> Instance.t -> Container.t -> verdict

(** [time_lower_bound t inst container] is the strongest proven lower
    bound on the time extent needed to pack [inst] into a container with
    [container]'s spatial extents (the time extent of [container] is
    ignored). Always at least 1. *)
val time_lower_bound : t -> Instance.t -> Container.t -> int

(** [run_all t inst container] evaluates every registered bound without
    short-circuiting and reports each verdict — the CLI [bounds]
    subcommand surface. *)
val run_all : t -> Instance.t -> Container.t -> (string * verdict) list

(** {1 Primitive bound families}

    Exposed for tests and examples. The [invalid_arg] messages of
    {!f_eps} and {!u_k} keep their historical ["Bounds.*"] prefixes. *)

(** The plain volume test. *)
val volume_exceeded : Instance.t -> Container.t -> bool

(** [Some task] when a task does not fit the container axis by axis. *)
val misfit : Instance.t -> Container.t -> int option

(** [true] when the heaviest precedence chain is longer than the
    container's time extent. *)
val critical_path_exceeded : Instance.t -> Container.t -> bool

(** Largest total duration of a clique of tasks that pairwise overflow
    the container in every spatial axis (a makespan lower bound). *)
val exclusion_duration : Instance.t -> Container.t -> int

(** [f_eps ~eps ~w_max w] is the threshold DFF. Requires
    [0 < eps <= w_max / 2] and [0 <= w <= w_max]. *)
val f_eps : eps:int -> w_max:int -> int -> int

(** [u_k ~k ~w_max w] is the multiplicative rounding DFF scaled to the
    transformed container extent [k * w_max]. Requires [k >= 1] and
    [0 <= w <= w_max]. *)
val u_k : k:int -> w_max:int -> int -> int

(** First composed per-axis DFF transformation whose transformed volume
    overflows, as a description. *)
val dff_volume_exceeded : Instance.t -> Container.t -> string option
