type outcome =
  | Feasible of Geometry.Placement.t
  | Infeasible
  | Timeout

type decision = {
  dim : int;
  u : int;
  v : int;
  overlap : bool;
}

type share = {
  offer : path:decision array -> len:int -> alt:decision -> int option;
  reclaim : int -> bool;
}

type stats = {
  nodes : int;
  decisions : int;
  conflicts : int;
  leaves : int;
  max_depth : int;
  elapsed : float;
  by_bounds : bool;
  by_heuristic : bool;
  rules : Telemetry.rule_counters;
  bounds : Telemetry.bound_counters;
}

type options = {
  rules : Packing_state.rules;
  use_bounds : bool;
  use_heuristic : bool;
  node_limit : int option;
  deadline : float option;
  interrupt : (unit -> bool) option;
  progress_interval_s : float;
  on_heartbeat : (Telemetry.progress -> unit) option;
  trace : Trace.t;
}

let default_options =
  {
    rules = Packing_state.default_rules;
    use_bounds = true;
    use_heuristic = true;
    node_limit = None;
    deadline = None;
    interrupt = None;
    progress_interval_s = 1.0;
    on_heartbeat = None;
    trace = Trace.null;
  }

let empty_stats =
  {
    nodes = 0;
    decisions = 0;
    conflicts = 0;
    leaves = 0;
    max_depth = 0;
    elapsed = 0.0;
    by_bounds = false;
    by_heuristic = false;
    rules = Telemetry.zero_rules;
    bounds = [];
  }

exception Found of Geometry.Placement.t
exception Stopped

(* How often (in nodes) the wall clock and the cooperative interrupt
   flag are polled. A power of two so the check compiles to a mask;
   the progress callbacks fire on wall-clock time measured at these
   polls, not on node counts. *)
let poll_mask = 31

(* Throttle for the opportunistic realization attempt at interior
   nodes: attempt only once this fraction of (pair, dimension) slots is
   decided, only after the propagation trail moved this far since the
   last attempt, and after consecutive failures wait a doubling number
   of nodes, capped at [backoff_limit]. *)
let min_decided_fraction = 0.4
let min_trail_delta = 8
let backoff_limit = 64

(* The stage-3 search from an already-initialized state. Counters are
   threaded through references so [solve] and [solve_state] share the
   code; [depth_offset] lets a caller account for decisions replayed
   into [state] before the search started. *)
let search ~options ~t0 ~depth_offset ?(bounds = []) ?share state =
  let nodes = ref 0 and conflicts = ref 0 and leaves = ref 0 in
  let decisions = ref 0 in
  (* The decision path from this search's root, maintained only when a
     work-stealing [share] is attached: slot [d] holds the branch taken
     at local depth [d] along the current DFS path, so an [offer] can
     describe the alternative subtree as a compact decision prefix
     without copying any state. *)
  let dummy_decision = { dim = 0; u = 0; v = 0; overlap = false } in
  let path = ref (if share = None then [||] else Array.make 64 dummy_decision) in
  let set_path d dec =
    let n = Array.length !path in
    if d >= n then begin
      let bigger = Array.make (2 * (d + 1)) dummy_decision in
      Array.blit !path 0 bigger 0 n;
      path := bigger
    end;
    !path.(d) <- dec
  in
  let max_depth = ref depth_offset in
  let realize_attempts = ref 0 and realize_time = ref 0.0 in
  (* Throttle state: trail size and node index of the last opportunistic
     attempt, plus the consecutive-failure count driving the backoff.
     Initialized so the very first eligible node attempts. *)
  let last_attempt_trail = ref (min_int / 2) in
  let last_attempt_node = ref (min_int / 2) in
  let consec_failures = ref 0 in
  let rules_snapshot () =
    {
      (Packing_state.rule_counters state) with
      Telemetry.realize_attempts = !realize_attempts;
      realize_time_s = !realize_time;
    }
  in
  let snapshot () =
    {
      nodes = !nodes;
      decisions = !decisions;
      conflicts = !conflicts;
      leaves = !leaves;
      max_depth = !max_depth;
      elapsed = Unix.gettimeofday () -. t0;
      by_bounds = false;
      by_heuristic = false;
      rules = rules_snapshot ();
      bounds;
    }
  in
  (* Progress callbacks fire on a wall-clock cadence: at every poll
     tick the clock is read once (shared with the deadline check) and
     compared against the next scheduled heartbeat, so the reporting
     rate is independent of node throughput. The clock is only read
     when some consumer needs it. *)
  let wants_progress =
    Option.is_some options.on_heartbeat || Trace.enabled options.trace
  in
  let wants_clock = wants_progress || Option.is_some options.deadline in
  let next_progress = ref (t0 +. options.progress_interval_s) in
  let heartbeat now =
    next_progress := now +. options.progress_interval_s;
    let elapsed = now -. t0 in
    let p =
      {
        Telemetry.elapsed_s = elapsed;
        nodes = !nodes;
        nodes_per_s =
          (if elapsed > 0.0 then float_of_int !nodes /. elapsed else 0.0);
        max_depth = !max_depth;
        decided_fraction = Packing_state.decided_fraction state;
        trail_length = Packing_state.total_trail state;
        bracket = None;
        gap = None;
      }
    in
    (match options.on_heartbeat with Some f -> f p | None -> ());
    Trace.progress options.trace p
  in
  let check_budget () =
    (match options.node_limit with
    | Some limit when !nodes > limit -> raise Stopped
    | _ -> ());
    if !nodes land poll_mask = 0 || !nodes = 1 then begin
      (match options.interrupt with
      | Some stop when stop () -> raise Stopped
      | _ -> ());
      if wants_clock then begin
        let now = Unix.gettimeofday () in
        (match options.deadline with
        | Some d when now > d -> raise Stopped
        | _ -> ());
        if wants_progress && now >= !next_progress then heartbeat now
      end
    end
  in
  let should_attempt () =
    Packing_state.decided_fraction state >= min_decided_fraction
    && abs (Packing_state.total_trail state - !last_attempt_trail)
       >= min_trail_delta
    && !nodes - !last_attempt_node
       >= min backoff_limit (1 lsl min !consec_failures 20)
  in
  let trace = options.trace in
  let rec dfs depth =
    incr nodes;
    if depth > !max_depth then max_depth := depth;
    let recorded = Trace.node_enter trace ~node:!nodes ~depth in
    check_budget ();
    let conflicts0 = !conflicts in
    dfs_body ~recorded depth;
    Trace.node_close trace ~recorded ~depth ~conflicts:(!conflicts - conflicts0)
  and dfs_body ~recorded depth =
    (* Early realization: if the decided part of the class already
       forces a feasible layout, stop — the validator guarantees
       soundness, undecided pairs merely lose their "must overlap"
       freedom. The attempt is budget-limited and throttled: it only
       fires when enough has been decided (or changed since the last
       try) to give it a real chance, and consecutive failures back it
       off exponentially. The exact check at true leaves below is never
       throttled, so the throttle changes speed, not the verdict. *)
    if should_attempt () then begin
      incr realize_attempts;
      last_attempt_node := !nodes;
      last_attempt_trail := Packing_state.total_trail state;
      let a0 = Unix.gettimeofday () in
      let hit = Reconstruct.attempt state in
      let dt = Unix.gettimeofday () -. a0 in
      realize_time := !realize_time +. dt;
      Trace.realize trace ~success:(Option.is_some hit) ~dur_s:dt;
      match hit with
      | Some placement -> raise (Found placement)
      | None -> incr consec_failures
    end;
    match Packing_state.choose_unknown state with
    | None -> (
      incr leaves;
      incr realize_attempts;
      let a0 = Unix.gettimeofday () in
      let hit = Reconstruct.of_state state in
      let dt = Unix.gettimeofday () -. a0 in
      realize_time := !realize_time +. dt;
      Trace.realize trace ~success:(Option.is_some hit) ~dur_s:dt;
      match hit with
      | Some placement -> raise (Found placement)
      | None -> incr conflicts)
    | Some (dim, u, v) ->
      incr decisions;
      Trace.decision trace ~recorded ~depth ~dim ~u ~v;
      let branch overlap =
        let marks = Packing_state.mark state in
        let r =
          if overlap then Packing_state.assign_component state ~dim u v
          else Packing_state.assign_comparable state ~dim u v
        in
        (match r with
        | Ok () -> dfs (depth + 1)
        | Error _ -> incr conflicts);
        Packing_state.undo_to state marks
      in
      (* Branch order: overlap (component) first, then comparable. *)
      (match share with
      | None ->
        branch true;
        branch false
      | Some s ->
        (* Work-stealing protocol at a branch point: before descending
           the first branch, offer the second one to the local deque (it
           is accepted only when the deque is hungry). After the first
           branch returns, try to take the offer back: a successful
           [reclaim] means nobody stole it, so the second branch runs in
           place on the live state — the execution order is then exactly
           the sequential DFS order. A failed reclaim means a thief owns
           that subtree and this node is done. *)
        let d_local = depth - depth_offset - 1 in
        let second = { dim; u; v; overlap = false } in
        let token = s.offer ~path:!path ~len:d_local ~alt:second in
        set_path d_local { dim; u; v; overlap = true };
        branch true;
        (match token with
        | None ->
          set_path d_local second;
          branch false
        | Some tok ->
          if s.reclaim tok then begin
            set_path d_local second;
            branch false
          end))
  in
  try
    dfs (depth_offset + 1);
    (Infeasible, snapshot ())
  with
  | Found placement ->
    Trace.incumbent trace ~objective:(Geometry.Placement.makespan placement);
    (Feasible placement, snapshot ())
  | Stopped -> (Timeout, snapshot ())

let solve_state ?(options = default_options) ?(depth_offset = 0) ?share state =
  search ~options ~t0:(Unix.gettimeofday ()) ~depth_offset ?share state

type presolved =
  | Settled of outcome * stats
  | Search of Packing_state.t * Telemetry.bound_counters

let presolve ?(options = default_options) ?schedule inst cont =
  let t0 = Unix.gettimeofday () in
  let trace = options.trace in
  (* Stage 1: try to disprove existence by bounds. The engine's counters
     are threaded into the final stats whatever stage settles the
     instance. *)
  let verdict, bounds =
    if not options.use_bounds then (Bound_engine.Inconclusive, [])
    else begin
      let e = Bound_engine.create ~trace () in
      let v =
        Trace.phase trace ~phase:"stage1-bounds" (fun () ->
            Bound_engine.check e inst cont)
      in
      (v, Bound_engine.counters e)
    end
  in
  let settled outcome ~conflicts ~by_bounds ~by_heuristic =
    Settled
      ( outcome,
        {
          empty_stats with
          conflicts;
          elapsed = Unix.gettimeofday () -. t0;
          by_bounds;
          by_heuristic;
          bounds;
        } )
  in
  match verdict with
  | Bound_engine.Infeasible _ ->
    settled Infeasible ~conflicts:0 ~by_bounds:true ~by_heuristic:false
  | Bound_engine.Lower_bound _ | Bound_engine.Inconclusive -> (
    (* Stage 2: try to construct a packing heuristically. A fixed
       schedule disables this stage: the heuristic would pick its own
       start times, which is not the question being asked. *)
    let heuristic_hit =
      if options.use_heuristic && schedule = None && Heuristic.supports inst
      then
        Trace.phase trace ~phase:"stage2-heuristic" (fun () ->
            Heuristic.pack inst cont)
      else None
    in
    match heuristic_hit with
    | Some placement ->
      Trace.incumbent trace ~objective:(Geometry.Placement.makespan placement);
      settled (Feasible placement) ~conflicts:0 ~by_bounds:false
        ~by_heuristic:true
    | None -> (
      (* The stage-3 root: an unpropagatable one settles the instance. *)
      match
        Packing_state.create ~rules:options.rules ?schedule ~trace inst cont
      with
      | Error _ ->
        settled Infeasible ~conflicts:1 ~by_bounds:false ~by_heuristic:false
      | Ok state -> Search (state, bounds)))

let solve ?(options = default_options) ?schedule inst cont =
  let t0 = Unix.gettimeofday () in
  match presolve ~options ?schedule inst cont with
  | Settled (outcome, stats) -> (outcome, stats)
  | Search (state, bounds) ->
    (* Stage 3: branch and bound over packing classes. *)
    Trace.phase options.trace ~phase:"stage3-search" (fun () ->
        search ~options ~t0 ~depth_offset:0 ~bounds state)

let feasible ?options ?schedule inst cont =
  match solve ?options ?schedule inst cont with
  | Feasible _, _ -> Ok true
  | Infeasible, _ -> Ok false
  | Timeout, _ -> Error `Timeout

let pp_outcome fmt = function
  | Feasible _ -> Format.pp_print_string fmt "feasible"
  | Infeasible -> Format.pp_print_string fmt "infeasible"
  | Timeout -> Format.pp_print_string fmt "timeout"

let pp_stats fmt s =
  Format.fprintf fmt
    "nodes=%d conflicts=%d leaves=%d depth=%d elapsed=%.3fs bounds=%b \
     heuristic=%b realizations=%d"
    s.nodes s.conflicts s.leaves s.max_depth s.elapsed s.by_bounds
    s.by_heuristic s.rules.Telemetry.realize_attempts

let stats_json s =
  Telemetry.Obj
    [
      ("nodes", Telemetry.Int s.nodes);
      ("conflicts", Telemetry.Int s.conflicts);
      ("leaves", Telemetry.Int s.leaves);
      ("max_depth", Telemetry.Int s.max_depth);
      ("elapsed_s", Telemetry.seconds s.elapsed);
      ("by_bounds", Telemetry.Bool s.by_bounds);
      ("by_heuristic", Telemetry.Bool s.by_heuristic);
      ("rules", Telemetry.rules_to_json s.rules);
      ("bounds", Telemetry.bounds_to_json s.bounds);
    ]

let stats_to_json s = Telemetry.to_string (stats_json s)

let merge_stats a b =
  {
    nodes = a.nodes + b.nodes;
    decisions = a.decisions + b.decisions;
    conflicts = a.conflicts + b.conflicts;
    leaves = a.leaves + b.leaves;
    max_depth = max a.max_depth b.max_depth;
    elapsed = max a.elapsed b.elapsed;
    by_bounds = a.by_bounds || b.by_bounds;
    by_heuristic = a.by_heuristic || b.by_heuristic;
    rules = Telemetry.add_rules a.rules b.rules;
    bounds = Telemetry.add_bound_counters a.bounds b.bounds;
  }
