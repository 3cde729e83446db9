(* Search-kernel regression tests:

   - the incremental [Packing_state.choose_unknown] (static score order
     + trail-maintained pressure flags) must pick exactly the pair the
     historical from-scratch scan picked, across arbitrary assign/undo
     sequences;
   - the derived decided-slot count must track the edge-state stores;
   - the stats surfaces must carry the per-rule counters. *)

module OG = Order.Oriented_graph
module Container = Geometry.Container
module Instance = Packing.Instance
module PS = Packing.Packing_state
module Solver = Packing.Opp_solver
module Par = Packing.Parallel_solver

let fixed_rand () =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> Random.State.make [| int_of_string s |]
  | None -> Random.State.make [| 0xE2612E; 2026 |]

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest ~rand:(fixed_rand ())
    (QCheck.Test.make ~count ~long_factor:10 ~name arb prop)

(* ------------------------------------------------------------------ *)
(* Reference branching oracle: the pre-incremental implementation,     *)
(* recomputed from scratch off the live edge-state stores.             *)
(* ------------------------------------------------------------------ *)

let reference_choose st =
  let inst = PS.instance st and cont = PS.container st in
  let d = Instance.dim inst in
  let has_comparable u v =
    let rec go k =
      k < d && (OG.kind (PS.dimension st k) u v = OG.Comparable || go (k + 1))
    in
    go 0
  in
  let pick ~pressured_only =
    let best = ref None in
    let best_score = ref (-1.0) in
    let consider k =
      let cap = float_of_int (Container.extent cont k) in
      List.iter
        (fun (u, v) ->
          if (not pressured_only) || not (has_comparable u v) then begin
            let score =
              float_of_int (Instance.extent inst u k + Instance.extent inst v k)
              /. cap
            in
            if score > !best_score then begin
              best_score := score;
              best := Some (k, u, v)
            end
          end)
        (OG.unknown_pairs (PS.dimension st k))
    in
    consider (d - 1);
    if !best = None then
      for k = 0 to d - 2 do
        consider k
      done;
    !best
  in
  match pick ~pressured_only:true with
  | Some _ as found -> found
  | None -> pick ~pressured_only:false

let reference_decided_fraction st =
  let inst = PS.instance st in
  let d = Instance.dim inst and n = Instance.count inst in
  let total = d * (n * (n - 1) / 2) in
  if total = 0 then 1.0
  else begin
    let unknown = PS.unknown_count st in
    float_of_int (total - unknown) /. float_of_int total
  end

(* ------------------------------------------------------------------ *)
(* Random assign/undo walks                                            *)
(* ------------------------------------------------------------------ *)

let arb_walk =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 1_000_000 in
      let* n = int_range 2 6 in
      let* max_extent = int_range 1 3 in
      let* max_duration = int_range 1 3 in
      let* arc_probability = oneofl [ 0.0; 0.3 ] in
      let* cw = int_range 3 6 and* ch = int_range 3 6 and* ct = int_range 3 7 in
      let* steps = int_range 5 40 in
      let* walk_seed = int_range 0 1_000_000 in
      return
        (seed, n, max_extent, max_duration, arc_probability, (cw, ch, ct),
         steps, walk_seed))
  in
  QCheck.make gen
    ~print:(fun (seed, n, me, md, ap, (cw, ch, ct), steps, ws) ->
      Printf.sprintf
        "seed=%d n=%d max_extent=%d max_duration=%d arcs=%.1f cont=%dx%dx%d \
         steps=%d walk=%d"
        seed n me md ap cw ch ct steps ws)

let prop_choose_unknown_matches_reference
    (seed, n, max_extent, max_duration, arc_probability, (cw, ch, ct), steps,
     walk_seed) =
  let inst =
    Benchmarks.Generate.random ~seed ~n ~max_extent ~max_duration
      ~arc_probability ()
  in
  let cont = Container.make3 ~w:cw ~h:ch ~t_max:ct in
  match PS.create inst cont with
  | Error _ -> true (* root infeasible: nothing to walk *)
  | Ok st ->
    let rng = Random.State.make [| walk_seed |] in
    let mark_stack = ref [] in
    let check () =
      let got = PS.choose_unknown st in
      let want = reference_choose st in
      if got <> want then
        QCheck.Test.fail_reportf
          "choose_unknown diverged: incremental %s, reference %s"
          (match got with
          | None -> "None"
          | Some (k, u, v) -> Printf.sprintf "(%d,%d,%d)" k u v)
          (match want with
          | None -> "None"
          | Some (k, u, v) -> Printf.sprintf "(%d,%d,%d)" k u v);
      let df = PS.decided_fraction st in
      let want_df = reference_decided_fraction st in
      if abs_float (df -. want_df) > 1e-9 then
        QCheck.Test.fail_reportf "decided_fraction drifted: %f vs %f" df
          want_df;
      got
    in
    for _ = 1 to steps do
      match check () with
      | None -> (
        (* Fully decided: only undo can continue the walk. *)
        match !mark_stack with
        | [] -> ()
        | m :: rest ->
          PS.undo_to st m;
          mark_stack := rest)
      | Some (dim, u, v) ->
        let r = Random.State.int rng 10 in
        if r < 4 || !mark_stack = [] then begin
          (* Branch on the solver's own pick, either way. *)
          let m = PS.mark st in
          let assign =
            if r land 1 = 0 then PS.assign_component
            else PS.assign_comparable
          in
          match assign st ~dim u v with
          | Ok () -> mark_stack := m :: !mark_stack
          | Error _ -> PS.undo_to st m
        end
        else if r < 7 then begin
          (* Undo one level. *)
          match !mark_stack with
          | [] -> ()
          | m :: rest ->
            PS.undo_to st m;
            mark_stack := rest
        end
        else begin
          (* Undo several levels at once (deep backtrack). *)
          let depth = 1 + Random.State.int rng 3 in
          let rec pop k =
            match !mark_stack with
            | m :: rest when k > 0 ->
              PS.undo_to st m;
              mark_stack := rest;
              pop (k - 1)
            | _ -> ()
          in
          pop depth
        end
    done;
    ignore (check ());
    true

(* ------------------------------------------------------------------ *)
(* Stats surfaces carry the rule counters                              *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_stats_json_carries_counters () =
  let inst =
    Benchmarks.Generate.random ~seed:11 ~n:6 ~max_extent:3 ~max_duration:3
      ~arc_probability:0.3 ()
  in
  let cont = Container.make3 ~w:5 ~h:5 ~t_max:6 in
  let options =
    { Solver.default_options with use_bounds = false; use_heuristic = false }
  in
  let _, stats = Solver.solve ~options inst cont in
  let json = Solver.stats_to_json stats in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "sequential json has %s" needle)
        true
        (contains ~needle json))
    [ "\"rules\""; "\"c2_calls\""; "\"c4_calls\""; "\"implication_calls\"";
      "\"capacity_calls\""; "\"realize_attempts\"" ];
  let report = Par.solve ~options ~jobs:2 inst cont in
  let pjson = Par.report_to_json report in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "parallel json has %s" needle)
        true
        (contains ~needle pjson))
    [ "\"rules\""; "\"realize_attempts\""; "\"workers\"" ]

let () =
  Alcotest.run "engine"
    [
      ( "branching",
        [
          qtest ~count:150 "incremental choose_unknown = from-scratch reference"
            arb_walk prop_choose_unknown_matches_reference;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "stats json carries rule counters" `Quick
            test_stats_json_carries_counters;
        ] );
    ]
