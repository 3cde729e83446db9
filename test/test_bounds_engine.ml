(* Soundness harness for the composable bound engine: every Infeasible
   certificate must agree with the exact solver, every Lower_bound must
   be dominated by the true optimum, and the counters/certificates must
   surface in the JSON telemetry. The reference solver runs with every
   engine hook disabled so the comparison is not circular. *)

module Engine = Packing.Bound_engine
module Solver = Packing.Opp_solver
module Problems = Packing.Problems
module Container = Geometry.Container
module Box = Geometry.Box

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let inst ?precedence boxes =
  Packing.Instance.make ?precedence ~boxes:(Array.of_list boxes) ()

let box3 w h d = Box.make3 ~w ~h ~duration:d
let cont3 w h t = Container.make3 ~w ~h ~t_max:t

(* Engine-free reference options: no stage-1 bounds. The heuristic
   stays on (its witnesses are validated), so only the exact search
   core decides. *)
let reference = { Solver.default_options with use_bounds = false }

let contains haystack needle =
  let nl = String.length needle and l = String.length haystack in
  let rec go i = i + nl <= l && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Random small instances: n <= 6, extents <= 3, containers <= 5^3.    *)
(* ------------------------------------------------------------------ *)

let arb_case =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 6 in
      let* dims =
        list_repeat n (triple (int_range 1 3) (int_range 1 3) (int_range 1 3))
      in
      let* arcs =
        let pairs =
          List.concat_map
            (fun u -> List.init (n - u - 1) (fun k -> (u, u + k + 1)))
            (List.init n Fun.id)
        in
        flatten_l
          (List.map
             (fun p ->
               let* keep = int_range 0 3 in
               return (if keep = 0 then Some p else None))
             pairs)
      in
      let* cw = int_range 2 5 and* ch = int_range 2 5 and* ct = int_range 2 5 in
      return (dims, List.filter_map Fun.id arcs, (cw, ch, ct)))
  in
  QCheck.make gen ~print:(fun (dims, arcs, (cw, ch, ct)) ->
      Format.asprintf "boxes=%s arcs=%s cont=%dx%dx%d"
        (String.concat ","
           (List.map (fun (w, h, d) -> Printf.sprintf "%dx%dx%d" w h d) dims))
        (String.concat ","
           (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) arcs))
        cw ch ct)

let case_instance (dims, arcs, _) =
  inst ~precedence:arcs (List.map (fun (w, h, d) -> box3 w h d) dims)

(* An Infeasible certificate must never contradict the exact solver. *)
let prop_infeasible_agrees case =
  let i = case_instance case in
  let _, _, (cw, ch, ct) = case in
  let c = cont3 cw ch ct in
  match Engine.check (Engine.create ()) i c with
  | Engine.Lower_bound _ | Engine.Inconclusive -> true
  | Engine.Infeasible cert -> (
    match Solver.solve ~options:reference i c with
    | Solver.Infeasible, _ -> true
    | Solver.Feasible _, _ ->
      QCheck.Test.fail_reportf "unsound certificate %s: %s" cert.Engine.bound
        cert.Engine.detail
    | Solver.Timeout, _ -> QCheck.assume_fail ())

(* A Lower_bound never exceeds the container's time extent (larger
   values must surface as Infeasible) and never exceeds the true
   minimal makespan on the same chip. *)
let prop_lower_bound_sound case =
  let i = case_instance case in
  let _, _, (cw, ch, ct) = case in
  let c = cont3 cw ch ct in
  match Engine.check (Engine.create ()) i c with
  | Engine.Infeasible _ | Engine.Inconclusive -> true
  | Engine.Lower_bound l ->
    if l > ct then
      QCheck.Test.fail_reportf "Lower_bound %d exceeds the queried cap %d" l ct
    else (
      match Problems.minimize_time ~options:reference i ~w:cw ~h:ch with
      | Problems.Optimal { value; _ } ->
        if l <= value then true
        else
          QCheck.Test.fail_reportf "Lower_bound %d above the optimum %d" l value
      | Problems.Infeasible -> true (* spatial misfit: no optimum to bound *)
      | Problems.Feasible_incumbent _ | Problems.Unknown _ ->
        QCheck.assume_fail ())

(* [time_lower_bound] (the probe-bracket seed used by Problems) is
   always positive and dominated by the optimum. *)
let prop_time_lower_bound_sound case =
  let i = case_instance case in
  let _, _, (cw, ch, _) = case in
  let lb = Engine.time_lower_bound (Engine.create ()) i (cont3 cw ch 1) in
  lb >= 1
  &&
  match Problems.minimize_time ~options:reference i ~w:cw ~h:ch with
  | Problems.Optimal { value; _ } -> lb <= value
  | Problems.Infeasible -> true
  | Problems.Feasible_incumbent _ | Problems.Unknown _ -> QCheck.assume_fail ()

(* ------------------------------------------------------------------ *)
(* Satellite: the doubling bracket of minimize_base starts at the      *)
(* engine's proven lower bound, not at 1.                              *)
(* ------------------------------------------------------------------ *)

let test_base_search_starts_at_engine_bound () =
  (* Two 3x3x3 tasks with t_max = 4: any two length-3 windows inside
     [0,4) intersect, so the tasks must be spatially disjoint — base 6
     is optimal. The engine refutes s = 4, 5 (serialization clique), so
     the first probe the driver pays for is already at s = 6. *)
  let i = inst [ box3 3 3 3; box3 3 3 3 ] in
  let probes = ref [] in
  let on_probe p = probes := p :: !probes in
  (match Problems.minimize_base ~on_probe i ~t_max:4 with
  | Problems.Optimal { value; _ } -> Alcotest.(check int) "optimum" 6 value
  | _ -> Alcotest.fail "expected a proven optimum");
  List.iter
    (fun (p : Problems.probe) ->
      let w = Container.extent p.Problems.target 0 in
      if w < 6 then
        Alcotest.failf "probed s=%d below the engine lower bound 6" w)
    !probes;
  Alcotest.(check bool) "at least one probe" true (!probes <> [])

(* With bounds disabled the same driver pays for the refuted sizes —
   the satellite fix is observable, not vacuous. *)
let test_base_search_without_engine_probes_low () =
  let i = inst [ box3 3 3 3; box3 3 3 3 ] in
  let probes = ref [] in
  let on_probe p = probes := p :: !probes in
  (match Problems.minimize_base ~options:reference ~on_probe i ~t_max:4 with
  | Problems.Optimal { value; _ } -> Alcotest.(check int) "optimum" 6 value
  | _ -> Alcotest.fail "expected a proven optimum");
  Alcotest.(check bool) "some probe below 6" true
    (List.exists
       (fun (p : Problems.probe) -> Container.extent p.Problems.target 0 < 6)
       !probes)

(* ------------------------------------------------------------------ *)
(* Certificates, counters, and their JSON surfaces                     *)
(* ------------------------------------------------------------------ *)

let test_certificate_and_counters () =
  let e = Engine.create () in
  (* Volume alone refutes: 2 * 3*3*3 = 54 > 3*3*3 = 27. *)
  let i = inst [ box3 3 3 3; box3 3 3 3 ] in
  (match Engine.check e i (cont3 3 3 3) with
  | Engine.Infeasible cert ->
    Alcotest.(check bool) "bound named" true (cert.Engine.bound <> "");
    let js = Packing.Telemetry.to_string (Engine.certificate_json cert) in
    Alcotest.(check bool) "certificate json has bound" true
      (contains js cert.Engine.bound)
  | _ -> Alcotest.fail "volume overflow must be refuted");
  let counters = Engine.counters e in
  Alcotest.(check bool) "counters non-empty" true (counters <> []);
  Alcotest.(check bool) "a prune was recorded" true
    (List.exists
       (fun (_, c) -> c.Packing.Telemetry.prunes > 0)
       counters);
  (* Merge is pointwise by name. *)
  let merged = Packing.Telemetry.add_bound_counters counters counters in
  List.iter
    (fun (name, c) ->
      let m = List.assoc name merged in
      Alcotest.(check int)
        (name ^ " calls doubled")
        (2 * c.Packing.Telemetry.calls)
        m.Packing.Telemetry.calls)
    counters

let test_verdict_json () =
  let e = Engine.create () in
  let i = inst [ box3 3 3 3; box3 3 3 3 ] in
  List.iter
    (fun (name, v) ->
      let js = Packing.Telemetry.to_string (Engine.verdict_json v) in
      match v with
      | Engine.Infeasible _ ->
        Alcotest.(check bool) (name ^ " infeasible tag") true
          (contains js "\"infeasible\"")
      | Engine.Lower_bound _ ->
        Alcotest.(check bool) (name ^ " lower_bound tag") true
          (contains js "\"lower_bound\"")
      | Engine.Inconclusive ->
        Alcotest.(check bool) (name ^ " inconclusive tag") true
          (contains js "\"inconclusive\""))
    (Engine.run_all e i (cont3 3 3 3))

let test_solver_stats_carry_bounds () =
  let i = inst [ box3 2 2 2; box3 2 2 2 ] in
  let _, stats = Solver.solve i (cont3 4 2 2) in
  Alcotest.(check bool) "stage-1 engine counted" true
    (stats.Solver.bounds <> []);
  Alcotest.(check bool) "stats json has bounds object" true
    (contains (Solver.stats_to_json stats) "\"bounds\"")

(* The bounds run once, at the root: a solve the search settles reports
   exactly one call per registered bound, sequential and parallel. *)
let test_root_only_bound_calls () =
  let options = { Solver.default_options with use_heuristic = false } in
  List.iter
    (fun jobs ->
      let r =
        Packing.Parallel_solver.solve ~options ~jobs Benchmarks.De.instance
          (cont3 16 16 14)
      in
      let stats = r.Packing.Parallel_solver.stats in
      (match r.Packing.Parallel_solver.outcome with
      | Solver.Feasible _ -> ()
      | o -> Alcotest.failf "jobs %d: %a" jobs Solver.pp_outcome o);
      Alcotest.(check bool) "settled by search" true (stats.Solver.nodes > 0);
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "jobs %d: one call per bound" jobs)
        (List.map (fun name -> (name, 1)) Engine.default_names)
        (List.map
           (fun (name, c) -> (name, c.Packing.Telemetry.calls))
           stats.Solver.bounds))
    [ 1; 2 ]

(* A 10^8-cell chip side: the DFF and energetic products used to wrap
   past max_int into an [Infeasible] certificate at 0 nodes (dff-volume
   blamed), while 10^7 answered feasible. No bound may refute it now,
   the solver must find the witness, and a container that really is
   too short must still be refuted through the saturated products. *)
let test_huge_container_no_overflow () =
  let de = Benchmarks.De.instance in
  let side = 100_000_000 in
  let huge = cont3 side side 14 in
  List.iter
    (fun (name, v) ->
      match v with
      | Engine.Infeasible c ->
        Alcotest.failf "%s refutes the 10^8 chip: %s" name c.Engine.detail
      | Engine.Lower_bound _ | Engine.Inconclusive -> ())
    (Engine.run_all (Engine.create ()) de huge);
  (match Solver.solve de huge with
  | Solver.Feasible _, _ -> ()
  | o, _ -> Alcotest.failf "10^8 chip: %a" Solver.pp_outcome o);
  (match Engine.check (Engine.create ()) de (cont3 side side 5) with
  | Engine.Infeasible _ -> ()
  | v -> Alcotest.failf "5 cycles < critical path 6: %a" Engine.pp_verdict v);
  Alcotest.(check int) "saturating product" max_int
    (Geometry.Saturating.mul side (side * side));
  Alcotest.(check int) "exact product below max_int" (side * side)
    (Geometry.Saturating.mul side side)

(* Three 2*10^9-square one-cycle tasks in 5 cycles: each volume fits an
   int, their sum does not. The wrapped total volume used to lower the
   square-base floor below the tasks' own side, so min-area answered
   2060260762 although the 2*10^9 chip holds the tasks one per cycle. *)
let test_wrapped_volume_floor () =
  let side = 2_000_000_000 in
  let i = inst (List.init 3 (fun _ -> box3 side side 1)) in
  Alcotest.(check int) "total volume saturates" max_int
    (Packing.Instance.total_volume i);
  (match Problems.minimize_base i ~t_max:5 with
  | Problems.Optimal { value; _ } -> Alcotest.(check int) "min-area" side value
  | _ -> Alcotest.fail "expected a proven optimum");
  match Problems.minimize_area_rect i ~t_max:5 with
  | Problems.Optimal { value = w, h; _ } ->
    Alcotest.(check (pair int int)) "rectangle" (side, side) (w, h)
  | _ -> Alcotest.fail "expected a proven rectangular optimum"

(* Two full-chip 2^61-cycle tasks in 3 * 2^60 cycles need 2^62 cycles
   one after the other. Stage 2's witness ended the second task at
   2^61 + 2^61, which wraps to -2^62 and passed the placement check, so
   [solve] answered feasible; the search alone answered infeasible. *)
let test_wrapped_witness_refuted () =
  let len = 1 lsl 61 in
  let i = inst [ box3 10 10 len; box3 10 10 len ] in
  match Solver.solve i (cont3 10 10 (3 * (1 lsl 60))) with
  | Solver.Infeasible, _ -> ()
  | o, _ -> Alcotest.failf "wrapped witness: %a" Solver.pp_outcome o

let () =
  Alcotest.run "bounds engine"
    [
      ( "soundness",
        [
          qtest ~count:150 "Infeasible agrees with exact solver" arb_case
            prop_infeasible_agrees;
          qtest ~count:100 "Lower_bound below optimum" arb_case
            prop_lower_bound_sound;
          qtest ~count:100 "time_lower_bound below optimum" arb_case
            prop_time_lower_bound_sound;
        ] );
      ( "problems integration",
        [
          Alcotest.test_case "base doubling starts at engine bound" `Quick
            test_base_search_starts_at_engine_bound;
          Alcotest.test_case "engine-free driver probes low" `Quick
            test_base_search_without_engine_probes_low;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "certificate and counters" `Quick
            test_certificate_and_counters;
          Alcotest.test_case "verdict json" `Quick test_verdict_json;
          Alcotest.test_case "solver stats carry bounds" `Quick
            test_solver_stats_carry_bounds;
          Alcotest.test_case "root-only bound calls" `Quick
            test_root_only_bound_calls;
        ] );
      ( "overflow",
        [
          Alcotest.test_case "10^8 chip is not refuted" `Quick
            test_huge_container_no_overflow;
          Alcotest.test_case "wrapped volume floor" `Quick
            test_wrapped_volume_floor;
          Alcotest.test_case "wrapped witness is refuted" `Quick
            test_wrapped_witness_refuted;
        ] );
    ]
