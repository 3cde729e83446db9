(* serve-mixed: one closed-loop client calling [Server.handle_line] in
   process, on a stream of mostly isomorphic cache hits (fresh
   relabelings of a warmed popular set) and some unique misses. *)

open Common
module S = Service.Server
module Canonical = Service.Canonical

(* The traffic is an assumption: no recorded traffic exists to take it
   from. The popular sizes n = 10, 20, 40 are asked equally often, nine
   requests in ten are hits, a popular class has [per_cell] candidates
   per size and op, and a miss may search 4000 nodes
   ([Inputs.serve_node_limit]). *)
type params = {
  stream : Inputs.stream_params;
  sizes : int list;  (** popular instance sizes *)
  per_cell : int;  (** popular candidates per (size, op) *)
  setups : int;  (** setups timed for [setup_s]; the last one is used *)
}

let requests_per_second = 2500

let params ~seconds =
  {
    stream =
      { Inputs.requests = seconds * requests_per_second; miss_frac = 0.1; miss_sizes = (8, 12) };
    sizes = [ 10; 20; 40 ];
    per_cell = 5;
    setups = 3;
  }

let tiny =
  {
    stream = { Inputs.requests = 60; miss_frac = 0.1; miss_sizes = (6, 8) };
    sizes = [ 10; 20; 40 ];
    per_cell = 1;
    setups = 1;
  }

type prepared = {
  server : S.t;
  popular : (Inputs.query * Packing.Instance.t) array;
  requests : int;
  stream : unit -> int -> Inputs.request array;
      (** a fresh reader of the request stream, see [Inputs.serve_stream] *)
}

(* Server creation and cache warm-up. Candidates whose warm answer is
   not definitive are dropped: the server never caches them, so they
   could not be hits. *)
let warm (p : params) =
  let server = S.create ~config:S.default_config () in
  let last = ref "" in
  let w = Service.Writer.of_sink (fun l -> last := l) in
  let popular =
    List.filter
      (fun (query, inst) ->
        let line = Inputs.request_line ~id:(-1) query inst in
        S.handle_line server w line;
        match
          Check.serve_response
            { Inputs.id = -1; cls = 0; query; base = inst; perm = None; line }
            !last
        with
        | Ok s -> s.Check.definitive
        | Error _ -> false)
      (Inputs.popular_candidates ~sizes:p.sizes ~per_cell:p.per_cell)
  in
  (server, Array.of_list popular)

let prepare ~seed p =
  let server, popular = warm p in
  {
    server;
    popular;
    requests = p.stream.Inputs.requests;
    stream = (fun () -> Inputs.serve_stream ~seed p.stream popular);
  }

type pass = {
  latency_s : float array;
  minor_words : float;  (** allocated inside [handle_line] *)
  hit : bool array;  (** known in the traced pass only *)
  stages_s : float array;  (** attributed stage time per request, traced pass only *)
  incomplete : int;  (** requests whose canonical form is incomplete, traced pass only *)
  definitive : int;
  utils : float array;  (** of the witnesses that came back *)
}

(* Requests are made, and their responses checked, in batches of this
   many, so neither the generator's nor the checker's work evicts the
   server's data between every two requests. *)
let check_batch = 512

let size_bucket n = if n <= 12 then "n10" else if n <= 25 then "n20" else "n40"

(* Attribution of one request: right after [handle_line] answered it,
   its stages are run again through the layers' public functions, one
   span per call, and a miss is solved again. Running them at once,
   rather than in a later pass, keeps host load that comes and goes
   from landing on one side of [server.glue_us] only. Returns the
   time of the stages [handle_line] runs on a hit, and whether the
   canonical form was complete. *)
let attribute_one spans i (r : Inputs.request) ~hit ~response =
  let stages = ref 0.0 in
  let timed name f =
    let t0 = now () in
    let v = Spans.wrap spans ~name ~op:i f in
    stages := !stages +. (now () -. t0);
    v
  in
  let json = Result.get_ok (timed "telemetry.parse" (fun () -> T.of_string r.Inputs.line)) in
  let text = Option.get (Option.bind (T.member "instance" json) T.to_string_opt) in
  let io = timed "instance_io.parse" (fun () -> Fpga.Instance_io.parse text) in
  let inst = io.Fpga.Instance_io.instance in
  let cname =
    if hit then "canonical.of_instance." ^ size_bucket (Packing.Instance.count inst)
    else "canonical.of_instance.miss"
  in
  let canon = timed cname (fun () -> Canonical.of_instance inst) in
  let resp = Result.get_ok (T.of_string response) in
  (match Option.map (Check.placement_of_json inst) (T.member "placement" resp) with
  | Some (Ok p) ->
    let cn = Packing.Instance.count inst in
    let origins = Array.make cn [||] in
    for k = 0 to cn - 1 do
      origins.(canon.Canonical.perm.(k)) <- Geometry.Placement.origin p k
    done;
    let pc = Geometry.Placement.make (Packing.Instance.boxes canon.Canonical.instance) origins in
    ignore
      (timed "canonical.restore" (fun () -> Canonical.restore_placement canon ~original:inst pc))
  | _ -> ());
  ignore (timed "telemetry.print" (fun () -> T.to_string resp));
  if not hit then begin
    let q = r.Inputs.query in
    let options =
      { Packing.Opp_solver.default_options with node_limit = Some Inputs.serve_node_limit }
    in
    let ci = canon.Canonical.instance in
    Spans.wrap spans ~name:"problems.solve" ~op:i (fun () ->
        match q.Inputs.op with
        | Inputs.Solve ->
          let w, h = q.Inputs.chip in
          ignore
            (Packing.Problems.feasible ~options ci
               (Geometry.Container.make3 ~w ~h ~t_max:q.Inputs.time))
        | Inputs.Min_time ->
          let w, h = q.Inputs.chip in
          ignore (Packing.Problems.minimize_time ~options ci ~w ~h)
        | Inputs.Min_area ->
          ignore (Packing.Problems.minimize_base ~options ci ~t_max:q.Inputs.time))
  end;
  (!stages, canon.Canonical.complete)

(* The closed loop: send, wait for the response, send the next. Only
   [handle_line] is timed; the host-speed kernel runs between requests.
   The traced pass also reads the cache counters per request, to split
   hits from misses, and attributes each request as soon as it is
   answered. *)
let run_pass ~spans ~speed ledger pr =
  let n = pr.requests in
  let next = pr.stream () in
  let last = ref "" in
  let w = Service.Writer.of_sink (fun l -> last := l) in
  let traced = Spans.enabled spans in
  let latency_s = Array.make n 0.0 in
  let responses = Array.make check_batch "" in
  let hit = Array.make n false and stages_s = Array.make n 0.0 and incomplete = ref 0 in
  let seen = Hashtbl.create 64 in
  let words = ref 0.0 and definitive = ref 0 and utils = ref [] in
  let serve (r : Inputs.request) =
    let i = r.Inputs.id in
    let hits0 = if traced then (S.cache_counters pr.server).T.cache_hits else 0 in
    Speed.tick speed;
    let w0 = minor_words () in
    let t0 = now () in
    Spans.wrap spans ~name:"server.handle_line" ~op:i (fun () ->
        S.handle_line pr.server w r.Inputs.line);
    latency_s.(i) <- now () -. t0;
    words := !words +. (minor_words () -. w0);
    responses.(i mod check_batch) <- !last;
    if traced then begin
      hit.(i) <- (S.cache_counters pr.server).T.cache_hits > hits0;
      let st, complete = attribute_one spans i r ~hit:hit.(i) ~response:!last in
      stages_s.(i) <- st;
      if not complete then incr incomplete
    end
  in
  let check (r : Inputs.request) =
    judge ledger ~what:("request " ^ r.Inputs.line)
      (match Check.serve_response r responses.(r.Inputs.id mod check_batch) with
      | Error e -> Error e
      | Ok s ->
        if s.Check.definitive then incr definitive;
        Option.iter (fun u -> utils := u :: !utils) s.Check.utilization;
        Check.class_agrees seen r.Inputs.cls s)
  in
  let rec loop () =
    match next check_batch with
    | [||] -> ()
    | chunk ->
      Array.iter serve chunk;
      Array.iter check chunk;
      loop ()
  in
  loop ();
  {
    latency_s;
    minor_words = !words;
    hit;
    stages_s;
    incomplete = !incomplete;
    definitive = !definitive;
    utils = Array.of_list !utils;
  }

let busy_s pass = Array.fold_left ( +. ) 0.0 pass.latency_s

(* [f] is the pass's speed factor; times are in reference time. *)
let end_to_end ~setup_s ~f pass =
  let n = Array.length pass.latency_s in
  [
    m "setup_s" "s" setup_s;
    m "throughput_ops_s" "1/s" (float_of_int n /. (f *. busy_s pass));
    m "latency_p50_ms" "ms" (1e3 *. f *. median pass.latency_s);
    m "latency_p99_ms" "ms" (1e3 *. f *. percentile pass.latency_s 0.99);
    m "proven_frac" "frac" (fratio pass.definitive n);
    m "utilization" "frac" (mean pass.utils);
    m "heap_peak_mb" "MB" (heap_peak_mb ());
  ]

let run ~seed ~traced p =
  let ledger = ledger () in
  let pr, setup_wall, setup_f = setup p.setups (fun () -> prepare ~seed p) in
  let hits0 = S.cache_counters pr.server in
  let speed = Speed.create () in
  let base = run_pass ~spans:Spans.off ~speed ledger pr in
  let f = Speed.factor speed in
  let hits1 = S.cache_counters pr.server in
  let n = pr.requests in
  let notes =
    [
      ("requests", string_of_int n);
      ("popular_sizes", String.concat "," (List.map string_of_int p.sizes));
      ("popular_classes", string_of_int (Array.length pr.popular));
      ("miss_frac", Printf.sprintf "%g" p.stream.Inputs.miss_frac);
      ("node_limit", string_of_int Inputs.serve_node_limit);
      ("latency_samples", string_of_int n);
      ("setups", string_of_int p.setups);
    ]
    @ speed_notes ~setup_f ~speed (end_to_end ~setup_s:setup_wall ~f:1.0 base)
  in
  if not traced then
    (outcome ledger ~notes (end_to_end ~setup_s:(setup_wall *. setup_f) ~f base), Spans.off)
  else begin
    (* A fresh server, warmed the same way, so the traced pass sees the
       same hits and misses. *)
    let pr = { pr with server = fst (warm p) } in
    let spans = Spans.create () in
    let tspeed = Speed.create () in
    let tp = run_pass ~spans ~speed:tspeed ledger pr in
    let aggs = Spans.aggregate spans in
    (* Glue is a hit's [handle_line] time minus its stages' time. Both
       are medians over hits, so a collector pause that lands in one
       call does not decide them. *)
    let on_hits f =
      Array.of_list
        (List.filter_map
           (fun i -> if tp.hit.(i) then Some (f i) else None)
           (List.init n Fun.id))
    in
    let glue_s = on_hits (fun i -> tp.latency_s.(i) -. tp.stages_s.(i)) in
    let glue_frac =
      on_hits (fun i -> ratio (tp.latency_s.(i) -. tp.stages_s.(i)) tp.latency_s.(i))
    in
    let dh = hits1.T.cache_hits - hits0.T.cache_hits in
    let dm = hits1.T.cache_misses - hits0.T.cache_misses in
    let us = Spans.mean_us aggs in
    ( outcome ledger ~notes:(notes @ [ ("traced_hits", string_of_int (Array.length glue_s)) ])
        [
          m "telemetry.parse_us" "us" (us "telemetry.parse");
          m "telemetry.print_us" "us" (us "telemetry.print");
          m "instance_io.parse_us" "us" (us "instance_io.parse");
          m "canonical.of_instance_us.n10" "us" (us "canonical.of_instance.n10");
          m "canonical.of_instance_us.n20" "us" (us "canonical.of_instance.n20");
          m "canonical.of_instance_us.n40" "us" (us "canonical.of_instance.n40");
          m "canonical.restore_us" "us" (us "canonical.restore");
          m "canonical.incomplete_frac" "frac" (fratio tp.incomplete n);
          m "server.glue_us" "us" (1e6 *. median glue_s);
          m "result_cache.hit_frac" "frac" (fratio dh (dh + dm));
          m "problems.miss_solve_ms" "ms" (us "problems.solve" /. 1e3);
          m "gc.minor_words_per_op" "words" (base.minor_words /. float_of_int n);
          m "trace.overhead_frac" "frac"
            (ratio (f *. busy_s base) (Speed.factor tspeed *. busy_s tp));
          m "trace.unattributed_frac" "frac" (median glue_frac);
        ],
      spans )
  end
