module T = Packing.Telemetry
module Solver = Packing.Opp_solver
module Par = Packing.Parallel_solver
module Problems = Packing.Problems
module Instance = Packing.Instance
module Placement = Geometry.Placement

type config = {
  jobs : int;
  cache_capacity : int;
  use_cache : bool;
  max_nodes : int option;
  max_time_s : float option;
  heartbeat_s : float option;
  solver_jobs : int;
}

let default_config =
  {
    jobs = 1;
    cache_capacity = 1024;
    use_cache = true;
    max_nodes = None;
    max_time_s = None;
    heartbeat_s = None;
    solver_jobs = 1;
  }

(* Cached results live in canonical task space; only definitive ones
   are ever stored (see [is_definitive]). *)
type solved =
  | R_feas of Problems.feasibility
  | R_any of int Problems.anytime

type t = {
  config : config;
  cache : solved Result_cache.t;
  lock : Mutex.t;
  (* Request accounting, all under [lock]. Everything [stats_json] and
     [metrics] report is read from here and from the cache's own
     counters; nothing is counted twice. [solver], [work] and
     [worker_nodes] fold the reports of every solve the answered
     requests ran. *)
  requests : (string * string, int) Hashtbl.t; (* (op, status) -> count *)
  mutable nodes_total : int;
  mutable latencies : float list;
  mutable inflight : int;
  lat_hit : Metrics.histogram;
  lat_miss : Metrics.histogram;
  req_nodes : Metrics.histogram;
  mutable solver : Solver.stats;
  mutable work : T.steal_counters;
  worker_nodes : (int, int) Hashtbl.t; (* worker id -> nodes *)
}

let create ?(config = default_config) () =
  let config = { config with jobs = max 1 config.jobs } in
  {
    config;
    cache = Result_cache.create ~capacity:config.cache_capacity ();
    lock = Mutex.create ();
    requests = Hashtbl.create 8;
    nodes_total = 0;
    latencies = [];
    inflight = 0;
    lat_hit = Metrics.histogram Metrics.latency_buckets;
    lat_miss = Metrics.histogram Metrics.latency_buckets;
    req_nodes = Metrics.histogram Metrics.node_buckets;
    solver = Solver.empty_stats;
    work = T.zero_steals;
    worker_nodes = Hashtbl.create 4;
  }

type meta = {
  cache_hit : bool;
  nodes : int;
  elapsed_s : float;
  digest : string;
}

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

type op = Op_solve | Op_min_time | Op_min_area

let op_name = function
  | Op_solve -> "solve"
  | Op_min_time -> "min-time"
  | Op_min_area -> "min-area"

type request = {
  id : T.json;
  op : op;
  io : Fpga.Instance_io.t;
  chip : (int * int) option;
  t_max : int option;
  node_limit : int option;
  time_limit_s : float option;
  req_jobs : int option;
}

let error_response id code msg =
  T.Obj
    [
      ("id", id);
      ("error", T.Obj [ ("code", T.String code); ("message", T.String msg) ]);
    ]

(* Parse a request object. Errors carry the echoed id (when one was
   readable) plus a typed code for the error response. *)
let parse_request json =
  let id = Option.value (T.member "id" json) ~default:T.Null in
  let bad msg = Error (id, "bad-request", msg) in
  match json with
  | T.Obj _ -> (
    let str k = Option.bind (T.member k json) T.to_string_opt in
    let int_f k = Option.bind (T.member k json) T.to_int_opt in
    let float_f k = Option.bind (T.member k json) T.to_float_opt in
    match str "op" with
    | None -> bad "missing or non-string \"op\""
    | Some op_s -> (
      let op =
        match op_s with
        | "solve" -> Some Op_solve
        | "min-time" -> Some Op_min_time
        | "min-area" -> Some Op_min_area
        | _ -> None
      in
      match op with
      | None ->
        bad
          (Printf.sprintf
             "unknown op %S (known: solve, min-time, min-area)" op_s)
      | Some op -> (
        match str "instance" with
        | None -> bad "missing or non-string \"instance\""
        | Some text -> (
          match Fpga.Instance_io.parse text with
          | exception Failure msg -> bad ("instance: " ^ msg)
          | io -> (
            let chip =
              match T.member "chip" json with
              | None | Some T.Null -> Ok None
              | Some (T.List [ a; b ]) -> (
                match (T.to_int_opt a, T.to_int_opt b) with
                | Some w, Some h when w > 0 && h > 0 -> Ok (Some (w, h))
                | _ -> Error ())
              | Some _ -> Error ()
            in
            match chip with
            | Error () -> bad "\"chip\" must be [w, h] with positive integers"
            | Ok chip ->
              let positive k v =
                match v with Some x when x <= 0 -> Error k | _ -> Ok v
              in
              let ( let* ) r f =
                match r with
                | Error k -> bad (Printf.sprintf "%S must be positive" k)
                | Ok v -> f v
              in
              let* t_max = positive "time" (int_f "time") in
              let* node_limit = positive "node_limit" (int_f "node_limit") in
              let* req_jobs = positive "jobs" (int_f "jobs") in
              let time_limit_s = float_f "time_limit_s" in
              (match time_limit_s with
              | Some s when s <= 0.0 ->
                bad "\"time_limit_s\" must be positive"
              | _ ->
                Ok
                  {
                    id;
                    op;
                    io;
                    chip;
                    t_max;
                    node_limit;
                    time_limit_s;
                    req_jobs;
                  }))))))
  | _ -> Error (T.Null, "parse", "request must be a JSON object")

let resolve_chip req =
  match req.chip with
  | Some wh -> Ok wh
  | None -> (
    match req.io.Fpga.Instance_io.chip with
    | Some c -> Ok (Fpga.Chip.width c, Fpga.Chip.height c)
    | None ->
      Error "no chip: pass \"chip\":[w,h] or a chip line in the instance")

let resolve_time req =
  match req.t_max with
  | Some t -> Ok t
  | None -> (
    match req.io.Fpga.Instance_io.t_max with
    | Some t -> Ok t
    | None ->
      Error "no time budget: pass \"time\":t or a time line in the instance")

(* ------------------------------------------------------------------ *)
(* Solving in canonical space                                          *)
(* ------------------------------------------------------------------ *)

let is_definitive = function
  | R_feas (Problems.Sat _ | Problems.Unsat) -> true
  | R_feas Problems.Undecided -> false
  | R_any (Problems.Optimal _ | Problems.Infeasible) -> true
  | R_any (Problems.Feasible_incumbent _ | Problems.Unknown _) -> false

(* Budgets: the request's ask, clamped by the server-side caps; the
   caps double as defaults for requests that name no budget. *)
let min_opt a b =
  match (a, b) with
  | Some x, Some y -> Some (min x y)
  | Some x, None | None, Some x -> Some x
  | None, None -> None

let options_for t req events =
  let node_limit = min_opt req.node_limit t.config.max_nodes in
  let deadline =
    match min_opt req.time_limit_s t.config.max_time_s with
    | None -> None
    | Some s -> Some (Unix.gettimeofday () +. s)
  in
  let base = { Solver.default_options with node_limit; deadline } in
  match t.config.heartbeat_s with
  | None -> base
  | Some interval ->
    {
      base with
      progress_interval_s = interval;
      on_heartbeat =
        Some
          (fun p ->
            Writer.line events
              (T.to_string
                 (T.Obj
                    [
                      ("id", req.id);
                      ("ev", T.String "heartbeat");
                      ("progress", T.progress_to_json p);
                    ])));
    }

(* The solver work of one request: stats merged over every solve it
   ran, plus the worker reports of the multi-domain ones (a [jobs = 1]
   report's single worker is the sequential solve itself). *)
type work = { stats : Solver.stats; workers : Par.worker_report list }

let no_work = { stats = Solver.empty_stats; workers = [] }

let add_work w stats (r : Par.report) =
  {
    stats = Solver.merge_stats w.stats stats;
    workers = (if r.Par.jobs > 1 then w.workers @ r.Par.workers else w.workers);
  }

(* Per-probe accounting for the minimization drivers: every probe's
   report joins the request's work (its bounds including the run's
   shared stage-1 engine); feasible probes additionally stream an
   incumbent event when heartbeats are on. *)
let probe_hook t req events work =
  fun (p : Problems.probe) ->
    let r = p.Problems.report in
    work := add_work !work { r.Par.stats with bounds = p.Problems.bounds } r;
    match (t.config.heartbeat_s, p.Problems.verdict) with
    | Some _, `Feasible ->
      Writer.line events
        (T.to_string
           (T.Obj
              [
                ("id", req.id);
                ("ev", T.String "incumbent");
                ( "container",
                  T.List
                    (Array.to_list
                       (Array.map
                          (fun e -> T.Int e)
                          (Geometry.Container.extents p.Problems.target))) );
                ("nodes", T.Int p.Problems.nodes);
              ]))
    | _ -> ()

let solve_request t req events (canon : Canonical.t) =
  let inst = canon.Canonical.instance in
  let jobs =
    max 1 (Option.value req.req_jobs ~default:t.config.solver_jobs)
  in
  let options = options_for t req events in
  let work = ref no_work in
  let on_probe = probe_hook t req events work in
  let solved =
    match req.op with
    | Op_solve ->
      let w, h = Result.get_ok (resolve_chip req) in
      let t_max = Result.get_ok (resolve_time req) in
      let container = Geometry.Container.make3 ~w ~h ~t_max in
      let outcome =
        (* One code path for every job count: the work-stealing kernel
           short-circuits [jobs = 1] to the sequential solver with zero
           domain overhead, so the server no longer special-cases it. *)
        let r = Par.solve ~options ~jobs inst container in
        work := add_work !work r.Par.stats r;
        r.Par.outcome
      in
      R_feas
        (match outcome with
        | Solver.Feasible p -> Problems.Sat p
        | Solver.Infeasible -> Problems.Unsat
        | Solver.Timeout -> Problems.Undecided)
    | Op_min_time ->
      let w, h = Result.get_ok (resolve_chip req) in
      R_any (Problems.minimize_time ~options ~jobs ~on_probe inst ~w ~h)
    | Op_min_area ->
      let t_max = Result.get_ok (resolve_time req) in
      R_any (Problems.minimize_base ~options ~jobs ~on_probe inst ~t_max)
  in
  (solved, !work)

(* ------------------------------------------------------------------ *)
(* Response rendering (back in the request's own task space)           *)
(* ------------------------------------------------------------------ *)

let placement_json original placement =
  let n = Instance.count original in
  T.List
    (List.init n (fun i ->
         let o = Placement.origin placement i in
         T.Obj
           [
             ("task", T.String (Instance.label original i));
             ("at", T.List (Array.to_list (Array.map (fun x -> T.Int x) o)));
           ]))

let witness_fields canon ~original placement =
  let restored = Canonical.restore_placement canon ~original placement in
  [
    ("makespan", T.Int (Placement.makespan restored));
    ("placement", placement_json original restored);
  ]

let render req (canon : Canonical.t) solved =
  let original = req.io.Fpga.Instance_io.instance in
  let fields =
    match solved with
    | R_feas (Problems.Sat p) ->
      ("status", T.String "feasible") :: witness_fields canon ~original p
    | R_feas Problems.Unsat -> [ ("status", T.String "infeasible") ]
    | R_feas Problems.Undecided -> [ ("status", T.String "undecided") ]
    | R_any r -> (
      ("status", T.String (Problems.status_string r))
      ::
      (match r with
      | Problems.Optimal { value; placement } ->
        ("value", T.Int value) :: witness_fields canon ~original placement
      | Problems.Feasible_incumbent
          { incumbent = { value; placement }; lower_bound; gap } ->
        ("value", T.Int value)
        :: ("lower_bound", T.Int lower_bound)
        :: ("gap", T.Int gap)
        :: witness_fields canon ~original placement
      | Problems.Infeasible -> []
      | Problems.Unknown { lower_bound } ->
        [ ("lower_bound", T.Int lower_bound) ]))
  in
  T.Obj (("id", req.id) :: ("op", T.String (op_name req.op)) :: fields)

(* ------------------------------------------------------------------ *)
(* The request pipeline                                                *)
(* ------------------------------------------------------------------ *)

let cache_key req (canon : Canonical.t) =
  match req.op with
  | Op_solve ->
    let w, h = Result.get_ok (resolve_chip req) in
    let t_max = Result.get_ok (resolve_time req) in
    Printf.sprintf "solve:%dx%dx%d|%s" w h t_max canon.Canonical.key
  | Op_min_time ->
    let w, h = Result.get_ok (resolve_chip req) in
    Printf.sprintf "min-time:%dx%d|%s" w h canon.Canonical.key
  | Op_min_area ->
    let t_max = Result.get_ok (resolve_time req) in
    Printf.sprintf "min-area:%d|%s" t_max canon.Canonical.key

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let account ?(op = "invalid") ?(cache_hit = false) ?(elapsed_s = 0.0)
    ?(work = no_work) ?(inflight = 0) t ~error =
  let nodes = work.stats.Solver.nodes in
  Mutex.protect t.lock (fun () ->
      bump t.requests (op, if error then "error" else "ok") 1;
      t.nodes_total <- t.nodes_total + nodes;
      t.latencies <- elapsed_s :: t.latencies;
      t.inflight <- t.inflight + inflight;
      Metrics.observe (if cache_hit then t.lat_hit else t.lat_miss) elapsed_s;
      if nodes > 0 then Metrics.observe t.req_nodes (float_of_int nodes);
      if work != no_work then begin
        t.solver <- Solver.merge_stats t.solver work.stats;
        List.iter
          (fun (w : Par.worker_report) ->
            t.work <- T.add_steals t.work w.Par.work;
            bump t.worker_nodes w.Par.worker w.Par.stats.Solver.nodes)
          work.workers
      end)

(* ------------------------------------------------------------------ *)
(* Metrics: a view of the counts above, built when it is read          *)
(* ------------------------------------------------------------------ *)

let metrics t =
  let cache = Result_cache.counters t.cache in
  Mutex.protect t.lock (fun () ->
      let s = t.solver and w = t.work in
      let n v = Metrics.Sample (float_of_int v) in
      let family kind name help rows =
        {
          Metrics.name;
          kind;
          help;
          samples =
            List.map
              (fun (labels, value) -> { Metrics.labels; value })
              (List.sort compare rows);
        }
      in
      let counter = family Metrics.Counter and gauge = family Metrics.Gauge in
      let one v = [ ([], v) ] in
      let by label keys f = List.map (fun k -> ([ (label, k) ], f k)) keys in
      let bound f b =
        f (Option.value (List.assoc_opt b s.Solver.bounds) ~default:T.zero_bound)
      in
      let bounds = Packing.Bound_engine.default_names in
      let parallel =
        if Hashtbl.length t.worker_nodes = 0 then []
        else
          [
            counter "fpga_parallel_tasks_total" "Subtree descriptors executed"
              (one (n w.T.tasks));
            counter "fpga_parallel_steals_total"
              "Descriptors taken from another worker's deque" (one (n w.T.steals));
            counter "fpga_parallel_donated_total"
              "Alternative branches published while descending" (one (n w.T.donated));
            counter "fpga_parallel_reclaimed_total"
              "Donated branches taken back unstolen" (one (n w.T.reclaimed));
            counter "fpga_parallel_worker_nodes_total" "Search nodes by worker"
              (Hashtbl.fold
                 (fun id v acc -> ([ ("worker", string_of_int id) ], n v) :: acc)
                 t.worker_nodes []);
          ]
      in
      [
        counter "fpga_bounds_calls_total" "Bound evaluations by bound"
          (by "bound" bounds (bound (fun c -> n c.T.calls)));
        counter "fpga_bounds_prunes_total" "Infeasible verdicts by bound"
          (by "bound" bounds (bound (fun c -> n c.T.prunes)));
        counter "fpga_bounds_seconds_total" "Seconds spent evaluating each bound"
          (by "bound" bounds (bound (fun c -> Metrics.Sample c.T.time_s)));
        gauge "fpga_cache_capacity" "Result cache capacity"
          (one (n cache.T.cache_capacity));
        gauge "fpga_cache_entries" "Result cache live entries"
          (one (n cache.T.cache_entries));
        counter "fpga_cache_evictions_total" "Result cache evictions"
          (one (n cache.T.cache_evictions));
        counter "fpga_cache_hits_total" "Result cache hits" (one (n cache.T.cache_hits));
        counter "fpga_cache_misses_total" "Result cache misses"
          (one (n cache.T.cache_misses));
        gauge "fpga_server_inflight_requests" "Requests currently being handled"
          (one (n t.inflight));
        family Metrics.Histogram "fpga_server_request_seconds"
          "Request wall-clock latency"
          [
            ([ ("cache", "hit") ], Metrics.buckets t.lat_hit);
            ([ ("cache", "miss") ], Metrics.buckets t.lat_miss);
          ];
        family Metrics.Histogram "fpga_server_request_solver_nodes"
          "Solver nodes spent per request" (one (Metrics.buckets t.req_nodes));
        counter "fpga_server_requests_total" "Requests by op and status"
          (Hashtbl.fold
             (fun (op, status) v acc -> ([ ("op", op); ("status", status) ], n v) :: acc)
             t.requests []);
        counter "fpga_solver_conflicts_total" "Search conflicts (refuted nodes)"
          (one (n s.Solver.conflicts));
        counter "fpga_solver_decisions_total" "Branch points expanded"
          (one (n s.Solver.decisions));
        counter "fpga_solver_leaves_total" "Fully decided leaves reached"
          (one (n s.Solver.leaves));
        counter "fpga_solver_nodes_total" "Search nodes visited" (one (n s.Solver.nodes));
        counter "fpga_solver_realize_attempts_total"
          "Realization (placement reconstruction) attempts"
          (one (n s.Solver.rules.T.realize_attempts));
        counter "fpga_solver_realize_seconds_total"
          "Seconds spent in realization attempts"
          (one (Metrics.Sample s.Solver.rules.T.realize_time_s));
        counter "fpga_solver_rule_conflicts_total" "Packing-rule conflicts by rule"
          (by "rule" Packing.Packing_state.rule_names (fun r ->
               n
                 (Option.value
                    (List.assoc_opt r s.Solver.rules.T.conflicts)
                    ~default:0)));
      ]
      @ parallel
      |> List.filter (fun f -> f.Metrics.samples <> [])
      |> List.sort (fun a b -> compare a.Metrics.name b.Metrics.name))

let metrics_json t = Metrics.to_json (metrics t)
let metrics_text t = Metrics.to_prometheus (metrics t)

let handle_request t events req_json =
  let t0 = Unix.gettimeofday () in
  Mutex.protect t.lock (fun () -> t.inflight <- t.inflight + 1);
  let finish ?(op = "invalid") ?(digest = "") ?(cache_hit = false)
      ?(work = no_work) ~error resp =
    let elapsed_s = Unix.gettimeofday () -. t0 in
    account t ~op ~cache_hit ~elapsed_s ~work ~inflight:(-1) ~error;
    (resp, { cache_hit; nodes = work.stats.Solver.nodes; elapsed_s; digest })
  in
  match T.member "op" req_json with
  | Some (T.String "metrics") ->
    (* Introspection op: answered from the server's own accounting
       without touching the solver pipeline. *)
    let id = Option.value (T.member "id" req_json) ~default:T.Null in
    finish ~op:"metrics" ~error:false
      (T.Obj
         [
           ("id", id);
           ("op", T.String "metrics");
           ("metrics", metrics_json t);
         ])
  | _ -> (
  match parse_request req_json with
  | Error (id, code, msg) -> finish ~error:true (error_response id code msg)
  | Ok req -> (
    (* every op needs its parameters resolvable before we spend work *)
    let params_ok =
      match req.op with
      | Op_solve ->
        Result.bind (resolve_chip req) (fun _ ->
            Result.map ignore (resolve_time req))
      | Op_min_time -> Result.map ignore (resolve_chip req)
      | Op_min_area -> Result.map ignore (resolve_time req)
    in
    let op = op_name req.op in
    match params_ok with
    | Error msg ->
      finish ~op ~error:true (error_response req.id "bad-request" msg)
    | Ok () -> (
      match
        let canon =
          Canonical.of_instance req.io.Fpga.Instance_io.instance
        in
        let key = cache_key req canon in
        let hit =
          if t.config.use_cache then Result_cache.find t.cache key else None
        in
        match hit with
        | Some solved ->
          finish ~op ~digest:canon.Canonical.digest ~cache_hit:true
            ~error:false (render req canon solved)
        | None ->
          let solved, work = solve_request t req events canon in
          if t.config.use_cache && is_definitive solved then
            Result_cache.add t.cache key solved;
          finish ~op ~digest:canon.Canonical.digest ~work ~error:false
            (render req canon solved)
      with
      | result -> result
      | exception Failure msg ->
        finish ~op ~error:true (error_response req.id "bad-request" msg)
      | exception Invalid_argument msg ->
        finish ~op ~error:true (error_response req.id "bad-request" msg)
      | exception exn ->
        finish ~op ~error:true
          (error_response req.id "internal" (Printexc.to_string exn)))))

let handle_line t w line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then ()
  else begin
    let resp =
      match T.of_string line with
      | Error msg ->
        account t ~error:true;
        error_response T.Null "parse" msg
      | Ok json -> (
        match handle_request t w json with
        | resp, _meta -> resp
        | exception exn ->
          (* handle_request already catches everything it can; this is
             the last-resort belt so the loop never dies *)
          account t ~error:true;
          error_response T.Null "internal" (Printexc.to_string exn))
    in
    Writer.line w (T.to_string resp)
  end

(* ------------------------------------------------------------------ *)
(* Serving loops                                                       *)
(* ------------------------------------------------------------------ *)

let serve_channel t w ic =
  if t.config.jobs <= 1 then begin
    try
      while true do
        handle_line t w (input_line ic)
      done
    with End_of_file -> ()
  end
  else begin
    (* one reader (this domain), [jobs] handler domains draining a
       shared queue; EOF closes the queue and every worker drains the
       remainder before exiting *)
    let q = Queue.create () in
    let qlock = Mutex.create () in
    let qcond = Condition.create () in
    let closed = ref false in
    let next () =
      Mutex.lock qlock;
      while Queue.is_empty q && not !closed do
        Condition.wait qcond qlock
      done;
      let job = if Queue.is_empty q then None else Some (Queue.pop q) in
      Mutex.unlock qlock;
      job
    in
    let rec worker () =
      match next () with
      | None -> ()
      | Some line ->
        handle_line t w line;
        worker ()
    in
    let domains =
      Array.init t.config.jobs (fun _ -> Domain.spawn worker)
    in
    (try
       while true do
         let line = input_line ic in
         Mutex.lock qlock;
         Queue.push line q;
         Condition.signal qcond;
         Mutex.unlock qlock
       done
     with End_of_file -> ());
    Mutex.lock qlock;
    closed := true;
    Condition.broadcast qcond;
    Mutex.unlock qlock;
    Array.iter Domain.join domains
  end

let serve_tcp t ~port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 8;
  while true do
    let fd, _peer = Unix.accept sock in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let w = Writer.of_channel oc in
    (try serve_channel t w ic with Sys_error _ | Unix.Unix_error _ -> ());
    (try flush oc with Sys_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Metrics exposition                                                  *)
(* ------------------------------------------------------------------ *)

(* Prometheus-style scrape endpoint: each connection gets one text
   exposition of [metrics t] and is closed. The socket is
   bound in the caller (a port clash raises synchronously); the accept
   loop runs on its own domain and never returns. *)
let serve_metrics t ~port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 8;
  Domain.spawn (fun () ->
      while true do
        let fd, _peer = Unix.accept sock in
        let oc = Unix.out_channel_of_descr fd in
        (try
           output_string oc (metrics_text t);
           flush oc
         with Sys_error _ | Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      done)

(* Periodic JSONL snapshot dump on the heartbeat cadence. Returns the
   stop function: it joins the dumper and writes one final snapshot so
   a short-lived server still leaves a record. *)
let start_metrics_dump t ~path ~interval_s =
  let oc = open_out path in
  let w = Writer.of_channel oc in
  let dump () =
    Writer.line w
      (T.to_string
         (T.Obj
            [
              ("ev", T.String "metrics");
              ("ts", T.seconds (Unix.gettimeofday ()));
              ("metrics", metrics_json t);
            ]))
  in
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          (* sleep in short slices so stop stays responsive *)
          let slept = ref 0.0 in
          while !slept < interval_s && not (Atomic.get stop) do
            let dt = Float.min 0.05 (interval_s -. !slept) in
            Unix.sleepf dt;
            slept := !slept +. dt
          done;
          if not (Atomic.get stop) then dump ()
        done)
  in
  fun () ->
    Atomic.set stop true;
    Domain.join d;
    dump ();
    close_out_noerr oc

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let cache_counters t = Result_cache.counters t.cache

let stats_json t =
  let requests, nodes, latencies =
    Mutex.protect t.lock (fun () ->
        ( Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.requests [],
          t.nodes_total,
          t.latencies ))
  in
  let sum p =
    List.fold_left (fun acc (k, v) -> if p k then acc + v else acc) 0 requests
  in
  let ops = List.sort_uniq compare (List.map (fun ((op, _), _) -> op) requests) in
  let lat = Array.of_list latencies in
  T.Obj
    [
      ("ev", T.String "stats");
      ("requests", T.Int (sum (fun _ -> true)));
      ("errors", T.Int (sum (fun (_, status) -> status = "error")));
      ("nodes", T.Int nodes);
      ( "latency",
        T.Obj
          [
            ("samples", T.Int (Array.length lat));
            ("p50_s", T.seconds (T.percentile lat ~p:0.5));
            ("p99_s", T.seconds (T.percentile lat ~p:0.99));
          ] );
      ( "ops",
        T.Obj (List.map (fun op -> (op, T.Int (sum (fun (o, _) -> o = op)))) ops) );
      ("cache", T.cache_to_json (Result_cache.counters t.cache));
    ]
