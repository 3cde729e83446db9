(* optimize-seq: the paper's optimization drivers
   ([Problems.minimize_time] / [minimize_base]) with default options and
   one node budget per optimization, over the paper's cases plus a
   seeded draw of random instances. On the cases it attributes, the
   traced run also drives every case through [~jobs:2] and replays every
   probe through [Parallel_solver]: the jobs-2 answers are checked
   against the jobs-1 ones and measure the work-stealing layer. *)

open Common
module P = Packing.Problems
module O = Packing.Opp_solver

type params = {
  count : int;  (** random cases, on top of the paper's five *)
  budget : int;  (** node budget of each optimization *)
  setups : int;
  traced_count : int;
      (** the last cases, which the traced run measures the layers on:
          a quarter of a full run keeps the traced run within a few
          times the untraced one, and the last ones ran after the
          process had warmed up *)
}

let cases_per_second = 400

let params ~seconds =
  let count = seconds * cases_per_second in
  { count; budget = 1000; setups = 15; traced_count = 5 + (count / 4) }

let tiny = { count = 6; budget = 1500; setups = 1; traced_count = 11 }

let options budget = { O.default_options with node_limit = Some budget }

(* One probe as the driver reported it, with the node budget it was
   handed (the optimization's budget minus earlier probes' nodes). *)
type probe = { p : P.probe; nodes_left : int }

type solved = {
  case : Inputs.opt_case;
  res : int P.anytime;
  dt : float;
  probes : probe list;  (** in order *)
}

let verdict_name = function
  | `Feasible -> "feasible"
  | `Infeasible -> "infeasible"
  | `Timeout -> "timeout"

let solve_case ~spans ~jobs ~budget k (c : Inputs.opt_case) =
  let left = ref budget and probes = ref [] in
  let on_probe (p : P.probe) =
    probes := { p; nodes_left = !left } :: !probes;
    left := !left - p.P.nodes;
    if Spans.enabled spans then begin
      let t1 = now () in
      Spans.add spans ~name:("problems.probe." ^ verdict_name p.P.verdict) ~op:k
        ~t0:(t1 -. p.P.elapsed_s) ~t1
    end
  in
  let options = options budget in
  let t0 = now () in
  let res =
    Spans.wrap spans ~name:"problems.minimize" ~op:k (fun () ->
        match c.Inputs.goal with
        | `Min_time (w, h) -> P.minimize_time ~options ~jobs ~on_probe c.Inputs.inst ~w ~h
        | `Min_area t -> P.minimize_base ~options ~jobs ~on_probe c.Inputs.inst ~t_max:t)
  in
  { case = c; res; dt = now () -. t0; probes = List.rev !probes }

type pass = {
  solved : solved array;
  busy_s : float;  (** time spent in the drivers *)
  minor_words : float;
}

(* One pass over the cases, passing each answer to [check] with the
   case's index. The host-speed kernel runs between cases. *)
let run_pass ~spans ~speed ~jobs ~budget ~check cases =
  let w0 = minor_words () in
  let solved =
    Array.mapi
      (fun k c ->
        Speed.tick speed;
        solve_case ~spans ~jobs ~budget k c)
      cases
  in
  let words = minor_words () -. w0 in
  Array.iteri check solved;
  { solved; busy_s = Array.fold_left (fun a s -> a +. s.dt) 0.0 solved; minor_words = words }

let utilization s =
  match P.best s.res with
  | None -> None
  | Some { P.value; placement } ->
    let w, h =
      match s.case.Inputs.goal with `Min_time (w, h) -> (w, h) | `Min_area _ -> (value, value)
    in
    Some (Check.witness_utilization s.case.Inputs.inst ~w ~h placement)

let check_case ledger ?reference i s =
  let what = Printf.sprintf "case %s\n%s" s.case.Inputs.name (Inputs.case_text s.case) in
  judge ledger ~what
    (match Check.optimization s.case s.res with
    | Error e -> Error e
    | Ok () -> (
      match reference with None -> Ok () | Some r -> Check.agree r.(i).res s.res))

(* [f] is the pass's speed factor; times are in reference time. *)
let end_to_end ~setup_s ~f pass =
  let n = Array.length pass.solved in
  let lat = Array.map (fun s -> s.dt) pass.solved in
  let proven = Array.fold_left (fun a s -> if Check.proven s.res then a + 1 else a) 0 pass.solved in
  [
    m "setup_s" "s" setup_s;
    m "throughput_ops_s" "1/s" (float_of_int n /. (f *. pass.busy_s));
    m "latency_p50_ms" "ms" (1e3 *. f *. median lat);
    m "latency_p99_ms" "ms" (1e3 *. f *. percentile lat 0.99);
    m "proven_frac" "frac" (fratio proven n);
    m "utilization" "frac"
      (mean (Array.of_list (List.filter_map utilization (Array.to_list pass.solved))));
    m "heap_peak_mb" "MB" (heap_peak_mb ());
  ]

(* ------------------------------------------------------------------ *)
(* Attribution                                                         *)
(* ------------------------------------------------------------------ *)

(* The probe as the driver ran it: the engine pre-check already happened
   in the driver, so the probe's own solve skips stage 1. *)
let probe_options (pr : probe) =
  { (options pr.nodes_left) with O.use_bounds = false }

type replay = {
  mutable nodes : int;
  mutable conflicts : int;
  mutable time_s : float;
  mutable words : float;
  mutable realize_ok : int;
  mutable rules : T.rule_counters;
  mutable steals : T.steal_counters;
  mutable busiest : int;  (** nodes of the busiest worker, summed over probes *)
}

(* Replays every probe of the pass with the budget it had, on [jobs]
   domains. A sequential replay must repeat its probe's node count; one
   that does not is a failed operation. *)
let replay_probes ledger ~spans ~jobs pass =
  let r =
    {
      nodes = 0;
      conflicts = 0;
      time_s = 0.0;
      words = 0.0;
      realize_ok = 0;
      rules = T.zero_rules;
      steals = T.zero_steals;
      busiest = 0;
    }
  in
  Array.iteri
    (fun k s ->
      List.iter
        (fun pr ->
          let options = probe_options pr and inst = s.case.Inputs.inst in
          let cont = pr.p.P.target in
          let w0 = minor_words () and t0 = now () in
          let outcome, (st : O.stats) =
            Spans.wrap spans
              ~name:(if jobs = 1 then "opp_solver.solve" else "parallel_solver.solve")
              ~op:k (fun () ->
                if jobs = 1 then O.solve ~options inst cont
                else begin
                  let rep = Packing.Parallel_solver.solve ~options ~jobs inst cont in
                  r.steals <-
                    List.fold_left
                      (fun a (w : Packing.Parallel_solver.worker_report) -> T.add_steals a w.work)
                      r.steals rep.workers;
                  r.busiest <-
                    r.busiest
                    + List.fold_left
                        (fun a (w : Packing.Parallel_solver.worker_report) ->
                          max a w.stats.O.nodes)
                        0 rep.workers;
                  (rep.outcome, rep.stats)
                end)
          in
          r.time_s <- r.time_s +. (now () -. t0);
          r.words <- r.words +. (minor_words () -. w0);
          r.nodes <- r.nodes + st.nodes;
          r.conflicts <- r.conflicts + st.conflicts;
          r.rules <- T.add_rules r.rules st.rules;
          if jobs = 1 then
            judge ledger
              ~what:
                (Printf.sprintf "probe replay, case %s\n%s" s.case.Inputs.name
                   (Inputs.case_text s.case))
              (if st.nodes = pr.p.P.nodes then Ok ()
               else
                 let target =
                   String.concat "x"
                     (List.map string_of_int
                        (Array.to_list (Geometry.Container.extents cont)))
                 in
                 Error
                   (Printf.sprintf "probe at %s took %d nodes, its replay %d" target
                      pr.p.P.nodes st.nodes));
          match outcome with
          | O.Feasible _ when not (st.by_heuristic || st.by_bounds) ->
            r.realize_ok <- r.realize_ok + 1
          | _ -> ())
        s.probes)
    pass.solved;
  r

(* Assign-then-undo cycles on root states of the suite's cases, at the
   container of their best answer. *)
let assign_undo_ns ~spans pass =
  let cycles = ref 0 and total = ref 0.0 in
  Array.iteri
    (fun k s ->
      match P.best s.res with
      | Some { P.value; _ } when k < 40 -> (
        match
          Packing.Packing_state.create s.case.Inputs.inst (Check.container_of s.case value)
        with
        | Error _ -> ()
        | Ok st ->
          let module PS = Packing.Packing_state in
          Spans.wrap spans ~name:"packing_state.assign_undo" ~op:k (fun () ->
              let t0 = now () in
              for rep = 1 to 200 do
                match PS.choose_unknown st with
                | None -> ()
                | Some (dim, u, v) ->
                  let mk = PS.mark st in
                  ignore
                    (if rep land 1 = 0 then PS.assign_comparable st ~dim u v
                     else PS.assign_component st ~dim u v);
                  ignore (PS.stabilize st);
                  PS.undo_to st mk;
                  incr cycles
              done;
              total := !total +. (now () -. t0)))
      | _ -> ())
    pass.solved;
  ratio (!total *. 1e9) (float_of_int !cycles)

let heuristic ~spans pass =
  let us = ref 0.0 and calls = ref 0 and tight = ref 0 and optimal = ref 0 in
  Array.iteri
    (fun k s ->
      match s.case.Inputs.goal with
      | `Min_area _ -> ()
      | `Min_time (w, h) -> (
        let inst = s.case.Inputs.inst in
        if Packing.Heuristic.supports inst then begin
          let t0 = now () in
          let hm =
            Spans.wrap spans ~name:"heuristic.makespan" ~op:k (fun () ->
                Packing.Heuristic.makespan inst ~base:(Geometry.Container.make3 ~w ~h ~t_max:1))
          in
          us := !us +. ((now () -. t0) *. 1e6);
          incr calls;
          match (s.res, hm) with
          | P.Optimal { value; _ }, Some (mk, _) ->
            incr optimal;
            if mk = value then incr tight
          | P.Optimal _, None -> incr optimal
          | _ -> ()
        end))
    pass.solved;
  (ratio !us (float_of_int !calls), fratio !tight !optimal)

(* [overhead_frac] is the traced pass's throughput over the untraced
   one's on the cases of [tp]. *)
let layer_metrics ledger ~base ~overhead_frac ~spans (tp : pass) =
  let probes = List.concat_map (fun s -> s.probes) (Array.to_list tp.solved) in
  let aggs0 = Spans.aggregate spans in
  let probe_ms v = Spans.mean_us aggs0 ("problems.probe." ^ v) /. 1e3 in
  let minimize = Spans.get aggs0 "problems.minimize" in
  let bounds =
    List.fold_left (fun a pr -> T.add_bound_counters a pr.p.P.bounds) [] probes
  in
  let nodes = List.fold_left (fun a pr -> a + pr.p.P.nodes) 0 probes in
  let rp = replay_probes ledger ~spans ~jobs:1 tp in
  let par = replay_probes ledger ~spans ~jobs:2 tp in
  let h_us, tight = heuristic ~spans tp in
  let au = assign_undo_ns ~spans tp in
  let per_node x = fratio x rp.nodes in
  let rules = rp.rules in
  let bound_metrics =
    List.concat_map
      (fun name ->
        let b = Option.value (List.assoc_opt name bounds) ~default:T.zero_bound in
        [
          m (Printf.sprintf "bound_engine.%s.calls" name) "count" (float_of_int b.T.calls);
          m (Printf.sprintf "bound_engine.%s.prunes" name) "count" (float_of_int b.T.prunes);
          m (Printf.sprintf "bound_engine.%s.time_ms" name) "ms" (b.T.time_s *. 1e3);
        ])
      Packing.Bound_engine.default_names
  in
  let calls, prunes =
    List.fold_left (fun (c, p) (_, b) -> (c + b.T.calls, p + b.T.prunes)) (0, 0) bounds
  in
  [
    m "problems.probes" "count" (float_of_int (List.length probes));
    m "problems.probe_ms.feasible" "ms" (probe_ms "feasible");
    m "problems.probe_ms.infeasible" "ms" (probe_ms "infeasible");
    m "problems.probe_ms.timeout" "ms" (probe_ms "timeout");
    m "opp_solver.nodes" "count" (float_of_int nodes);
    m "opp_solver.nodes_per_s" "1/s" (ratio (float_of_int rp.nodes) rp.time_s);
    m "opp_solver.minor_words_per_node" "words" (ratio rp.words (float_of_int rp.nodes));
    m "opp_solver.realize_success_frac" "frac" (fratio rp.realize_ok rules.T.realize_attempts);
    m "opp_solver.conflicts_per_node" "ratio" (per_node rp.conflicts);
    m "packing_state.calls_per_node.c2" "ratio" (per_node rules.T.c2_calls);
    m "packing_state.calls_per_node.c4" "ratio" (per_node rules.T.c4_calls);
    m "packing_state.calls_per_node.capacity" "ratio" (per_node rules.T.capacity_calls);
    m "packing_state.calls_per_node.implication" "ratio" (per_node rules.T.implication_calls);
    m "packing_state.assign_undo_ns" "ns" au;
  ]
  @ bound_metrics
  @ [
      m "bound_engine.prune_frac" "frac" (fratio prunes calls);
      m "heuristic.makespan_us" "us" h_us;
      m "heuristic.tight_frac" "frac" tight;
      m "gc.minor_words_per_op" "words"
        (base.minor_words /. float_of_int (Array.length base.solved));
      m "trace.overhead_frac" "frac" overhead_frac;
      m "trace.unattributed_frac" "frac" (ratio minimize.Spans.self_s minimize.Spans.total_s);
    ]
  @
  let st = par.steals in
  [
    m "parallel_solver.tasks" "count" (float_of_int st.T.tasks);
    m "parallel_solver.steals" "count" (float_of_int st.T.steals);
    m "parallel_solver.donated" "count" (float_of_int st.T.donated);
    m "parallel_solver.reclaimed" "count" (float_of_int st.T.reclaimed);
    m "parallel_solver.busiest_worker_frac" "frac" (fratio par.busiest par.nodes);
    m "parallel_solver.node_overhead" "ratio" (fratio par.nodes rp.nodes);
  ]

let run ~seed ~traced p =
  let ledger = ledger () in
  let cases, setup_wall, setup_f =
    setup p.setups (fun () -> Array.of_list (Inputs.opt_cases ~seed ~count:p.count))
  in
  let pass ?reference ?(speed = Speed.create ()) ~spans ~jobs cases =
    run_pass ~spans ~speed ~jobs ~budget:p.budget ~check:(check_case ledger ?reference) cases
  in
  let speed = Speed.create () in
  let base = pass ~speed ~spans:Spans.off ~jobs:1 cases in
  let f = Speed.factor speed in
  let n = Array.length cases in
  let notes =
    [
      ("cases", string_of_int n);
      ("paper_cases", "5");
      ("node_budget", string_of_int p.budget);
      ("latency_samples", string_of_int n);
      ("setups", string_of_int p.setups);
    ]
    @ speed_notes ~setup_f ~speed (end_to_end ~setup_s:setup_wall ~f:1.0 base)
  in
  if not traced then
    (outcome ledger ~notes (end_to_end ~setup_s:(setup_wall *. setup_f) ~f base), Spans.off)
  else begin
    let k = min n p.traced_count in
    let sub = Array.sub cases (n - k) k and base_sub = Array.sub base.solved (n - k) k in
    let spans = Spans.create () in
    let tspeed = Speed.create () in
    let tp = pass ~speed:tspeed ~spans ~jobs:1 sub in
    (* Every jobs-2 answer against the jobs-1 answer on the same case and
       budget. *)
    ignore (pass ~reference:base_sub ~spans:Spans.off ~jobs:2 sub);
    let base_busy_s = Array.fold_left (fun a s -> a +. s.dt) 0.0 base_sub in
    let overhead_frac = ratio (f *. base_busy_s) (Speed.factor tspeed *. tp.busy_s) in
    ( outcome ledger
        ~notes:(notes @ [ ("traced_cases", string_of_int k) ])
        (layer_metrics ledger ~base ~overhead_frac ~spans tp),
      spans )
  end
