(* The workload registry: run one workload by name, untraced or traced. *)

open Common

let names = [ "serve-mixed"; "optimize-seq"; "online-stream" ]

(* Direction of each end-to-end metric. *)
let end_to_end_spec =
  [
    ("setup_s", "lower");
    ("throughput_ops_s", "higher");
    ("latency_p50_ms", "lower");
    ("latency_p99_ms", "lower");
    ("proven_frac", "higher");
    ("utilization", "higher");
    ("heap_peak_mb", "lower");
  ]

let run ~tiny ~seconds ~seed ~traced = function
  | "serve-mixed" ->
    Serve_mixed.run ~seed ~traced (if tiny then Serve_mixed.tiny else Serve_mixed.params ~seconds)
  | "optimize-seq" ->
    Optimize.run ~seed ~traced (if tiny then Optimize.tiny else Optimize.params ~seconds)
  | "online-stream" ->
    Online_stream.run ~seed ~traced
      (if tiny then Online_stream.tiny else Online_stream.params ~seconds)
  | w -> invalid_arg ("unknown workload " ^ w)

(* Per-layer metrics that read 0 only when the run never reached their
   layer (no calls, no samples). A traced run fails on any of them that
   is 0, so an unreached layer is never reported as a measurement. *)
let must_reach =
  [
    "telemetry.parse_us";
    "telemetry.print_us";
    "instance_io.parse_us";
    "canonical.of_instance_us.n10";
    "canonical.of_instance_us.n20";
    "canonical.of_instance_us.n40";
    "canonical.restore_us";
    "server.glue_us";
    "result_cache.hit_frac";
    "problems.miss_solve_ms";
    "problems.probes";
    "problems.probe_ms.feasible";
    "problems.probe_ms.infeasible";
    "problems.probe_ms.timeout";
    "opp_solver.nodes";
    "opp_solver.nodes_per_s";
    "opp_solver.minor_words_per_node";
    "packing_state.calls_per_node.implication";
    "packing_state.assign_undo_ns";
    "heuristic.makespan_us";
    "parallel_solver.tasks";
    "parallel_solver.node_overhead";
    "free_space.find_us";
    "free_space.place_us";
    "free_space.remove_us";
    "free_space.mer_count_mean";
    "online.free_space_frac";
    "online.place_p50_us";
    "gc.minor_words_per_op";
    "trace.overhead_frac";
  ]
  @ List.map (Printf.sprintf "bound_engine.%s.calls") Packing.Bound_engine.default_names

(* The seed of the borrowed runs below. It is fixed, not the run's
   seed, because a tiny run reaches every layer only on some seeds: on
   this one the tiny optimize run has feasible, infeasible and timed-out
   probes, and the tests pin that every tiny traced run reaches all of
   its layers on it. *)
let borrow_seed = 7

(* A traced run reports every per-layer metric. The workload's own
   layers come from its own run. The layers it does not reach are
   borrowed from tiny traced runs of the other workloads on
   [borrow_seed]; the header's [borrowed] entry names each such metric
   and the run it came from. *)
let traced ~tiny ~seconds ~seed workload =
  let own, spans = run ~tiny ~seconds ~seed ~traced:true workload in
  let merged, borrowed =
    List.fold_left
      (fun ((acc : result), borrowed) other ->
        if other = workload then (acc, borrowed)
        else
          let r, _ = run ~tiny:true ~seconds ~seed:borrow_seed ~traced:true other in
          let have = List.map (fun (x : metric) -> x.name) acc.metrics in
          let lent = List.filter (fun (x : metric) -> not (List.mem x.name have)) r.metrics in
          ( {
              acc with
              attempted = acc.attempted + r.attempted;
              failed = acc.failed + r.failed;
              failures = acc.failures @ r.failures;
              metrics = acc.metrics @ lent;
            },
            borrowed
            @ [
                Printf.sprintf "tiny traced %s run, seed %d: %s" other borrow_seed
                  (String.concat "," (List.map (fun (x : metric) -> x.name) lent));
              ] ))
      (own, []) names
  in
  let value name =
    (List.find (fun (x : metric) -> x.name = name) merged.metrics).value
  in
  let problems =
    List.filter_map
      (fun name ->
        let v = value name in
        if v > 0.0 then None
        else Some (Printf.sprintf "layer not reached: %s is %g (seed %d)" name v seed))
      must_reach
    @
    let u = value "trace.unattributed_frac" in
    if u >= -.timing_tolerance && u <= 1.0 then []
    else
      [
        Printf.sprintf "trace.unattributed_frac %g is outside [%g, 1] (seed %d)" u
          (-.timing_tolerance) seed;
      ]
  in
  ( {
      merged with
      attempted = merged.attempted + List.length must_reach + 1;
      failed = merged.failed + List.length problems;
      failures = merged.failures @ problems;
      notes = merged.notes @ [ ("borrowed", String.concat "; " borrowed) ];
    },
    spans )
