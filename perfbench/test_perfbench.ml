(* The benchmark's own tests: seeded inputs are reproducible, every
   checker rejects a mutated answer, and every workload runs end to end
   at smoke size. *)

open Perfbench
module I = Packing.Instance
module P = Packing.Problems
module T = Packing.Telemetry
module On = Fpga.Online

let ok what = function
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: unexpected rejection: %s" what e

let rejected what = function
  | Ok _ -> Alcotest.failf "%s: mutated answer accepted" what
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let popular () =
  Array.of_list (Inputs.popular_candidates ~sizes:[ 10; 20 ] ~per_cell:1)

let stream seed =
  Inputs.serve_stream ~seed Serve_mixed.tiny.Serve_mixed.stream (popular ()) max_int
  |> Array.map (fun (r : Inputs.request) -> r.Inputs.line)
  |> Array.to_list |> String.concat "\n"

let cases seed = String.concat "\n" (List.map Inputs.case_text (Inputs.opt_cases ~seed ~count:8))

let arrivals seed =
  Inputs.arrival_streams ~seed ~streams:2 ~tasks:200
  |> Array.map Inputs.stream_text |> Array.to_list |> String.concat "\n"

let test_same_seed_same_inputs () =
  List.iter
    (fun (what, gen) ->
      Alcotest.(check string) (what ^ " repeats") (gen 7) (gen 7);
      Alcotest.(check bool) (what ^ " depends on the seed") false (gen 7 = gen 8))
    [ ("request stream", stream); ("instance list", cases); ("arrival streams", arrivals) ]

(* A hit's request text is the popular instance with its task lines
   permuted; it must parse to exactly the relabeled instance the checker
   uses. *)
let test_relabeled_text () =
  Array.iter
    (fun (r : Inputs.request) ->
      let json = Result.get_ok (T.of_string r.Inputs.line) in
      let text = Option.get (Option.bind (T.member "instance" json) T.to_string_opt) in
      Alcotest.(check string)
        (Printf.sprintf "request %d" r.Inputs.id)
        (Inputs.instance_text (Inputs.instance r))
        (Inputs.instance_text (Fpga.Instance_io.parse text).Fpga.Instance_io.instance))
    (Inputs.serve_stream ~seed:4 Serve_mixed.tiny.Serve_mixed.stream (popular ()) max_int)

(* ------------------------------------------------------------------ *)
(* serve-mixed checker                                                 *)
(* ------------------------------------------------------------------ *)

let served_request op =
  let query, inst = List.find (fun (q, _) -> q.Inputs.op = op) (Array.to_list (popular ())) in
  let line = Inputs.request_line ~id:1 query inst in
  let req = { Inputs.id = 1; cls = 0; query; base = inst; perm = None; line } in
  let server = Service.Server.create () in
  let last = ref "" in
  Service.Server.handle_line server (Service.Writer.of_sink (fun l -> last := l)) line;
  (req, !last)

(* Rewrite the response's JSON with [f] applied to its fields. *)
let edit_response line f =
  match T.of_string line with
  | Ok (T.Obj fields) -> T.to_string (T.Obj (f fields))
  | _ -> Alcotest.fail "response is not an object"

let test_serve_checker () =
  let req, resp = served_request Inputs.Min_time in
  let s = Result.get_ok (Check.serve_response req resp) in
  ok "genuine response" (Check.serve_response req resp);
  Alcotest.(check bool) "definitive" true s.Check.definitive;
  (* Every task moved onto the first task's origin: overlapping placement. *)
  let overlap =
    edit_response resp
      (List.map (function
        | "placement", T.List (first :: rest) ->
          let at = Option.get (T.member "at" first) in
          ( "placement",
            T.List
              (first
              :: List.map
                   (function
                     | T.Obj f -> T.Obj (List.map (function "at", _ -> ("at", at) | kv -> kv) f)
                     | j -> j)
                   rest) )
        | kv -> kv))
  in
  rejected "overlapping placement" (Check.serve_response req overlap);
  rejected "error response"
    (Check.serve_response req
       "{\"id\":\"r1\",\"error\":{\"code\":\"internal\",\"message\":\"x\"}}");
  rejected "unparseable response" (Check.serve_response req "{\"id\":");
  (* A wrong optimum for an isomorphic request of the same class. *)
  let seen = Hashtbl.create 4 in
  ok "first member" (Check.class_agrees seen 0 s);
  let v = Option.get s.Check.value in
  rejected "wrong optimum in class"
    (Check.class_agrees seen 0 { s with Check.value = Some (v + 1) })

(* ------------------------------------------------------------------ *)
(* optimize checker                                                    *)
(* ------------------------------------------------------------------ *)

let test_optimize_checker () =
  let de = List.hd (Inputs.paper_cases ()) in
  let t = match de.Inputs.goal with `Min_area t -> t | `Min_time _ -> assert false in
  let r = P.minimize_base de.Inputs.inst ~t_max:t in
  ok "paper optimum" (Check.optimization de r);
  match r with
  | P.Optimal { value; placement } ->
    rejected "wrong optimum"
      (Check.optimization de (P.Optimal { value = value + 1; placement }));
    (* Start every task at time 0: breaks the precedence order. *)
    let n = I.count de.Inputs.inst in
    let flat =
      Geometry.Placement.make (I.boxes de.Inputs.inst)
        (Array.init n (fun i ->
             let o = Array.copy (Geometry.Placement.origin placement i) in
             o.(2) <- 0;
             o))
    in
    rejected "broken precedence" (Check.optimization de (P.Optimal { value; placement = flat }));
    rejected "unconfirmed infeasible" (Check.optimization de P.Infeasible);
    rejected "jobs disagree" (Check.agree r (P.Optimal { value = value + 1; placement }))
  | _ -> Alcotest.fail "DE must be optimal"

(* ------------------------------------------------------------------ *)
(* online checker                                                      *)
(* ------------------------------------------------------------------ *)

let test_online_checker () =
  let tasks = (Inputs.arrival_streams ~seed:3 ~streams:1 ~tasks:300).(0) in
  let chip = Inputs.online_chip in
  let r = On.run_stream ~policy:On.Best_fit tasks ~chip ~compaction:false ~move_delay:1 in
  ok "genuine stream" (Check.online_stream tasks ~chip r);
  let placed =
    List.filter_map
      (function On.Placed p -> Some (p.task, p.x, p.y, p.time) | _ -> None)
      r.On.events
  in
  let with_events events = { r with On.events } in
  let remap f = with_events (List.map f r.On.events) in
  (* Two tasks running at the same time at the same spot. *)
  let a, b =
    let rec find = function
      | (i, _, _, ti) :: rest -> (
        match
          List.find_opt
            (fun (j, _, _, tj) ->
              tj >= ti && tj < ti + tasks.(i).On.duration
              && tasks.(j).On.w <= tasks.(i).On.w && tasks.(j).On.h <= tasks.(i).On.h)
            rest
        with
        | Some (j, _, _, _) -> (i, j)
        | None -> find rest)
      | [] -> Alcotest.fail "no concurrent pair"
    in
    find placed
  in
  let _, xa, ya, _ = List.find (fun (i, _, _, _) -> i = a) placed in
  let overlapping =
    remap (function On.Placed p when p.task = b -> On.Placed { p with x = xa; y = ya } | e -> e)
  in
  rejected "overlapping placement" (Check.online_stream tasks ~chip overlapping);
  (* The free-space replay follows the scheduler's placements, and leaves
     its path on a placement the scheduler did not make. *)
  let diverged r =
    let _, _, d = Online_stream.replay ~spans:Common.Spans.off 0 tasks r in
    d
  in
  Alcotest.(check (option string)) "genuine replay" None (diverged r);
  Alcotest.(check bool) "moved placement diverges" true (diverged overlapping <> None);
  (* A successor started before its predecessor finished. *)
  let succ, pred =
    let i = List.find (fun i -> tasks.(i).On.preds <> []) (List.init (Array.length tasks) Fun.id) in
    (i, List.hd tasks.(i).On.preds)
  in
  let _, _, _, tp = List.find (fun (i, _, _, _) -> i = pred) placed in
  rejected "broken precedence"
    (Check.online_stream tasks ~chip
       (remap (function
         | On.Placed p when p.task = succ -> On.Placed { p with time = tp }
         | e -> e)));
  rejected "lost task"
    (Check.online_stream tasks ~chip
       (with_events
          (List.filter (function On.Placed p -> p.task <> a | _ -> true) r.On.events)))

(* ------------------------------------------------------------------ *)
(* Smoke                                                               *)
(* ------------------------------------------------------------------ *)

let test_smoke () =
  List.iter
    (fun w ->
      let r, _ = Workloads.run ~tiny:true ~seconds:1 ~seed:5 ~traced:false w in
      Alcotest.(check int) (w ^ " failed") 0 r.Common.failed;
      Alcotest.(check bool) (w ^ " attempted") true (r.Common.attempted > 0);
      List.iter
        (fun (name, _) ->
          match List.find_opt (fun (x : Common.metric) -> x.name = name) r.Common.metrics with
          | Some x -> Alcotest.(check bool) (w ^ " " ^ name ^ " > 0") true (x.value > 0.0)
          | None -> Alcotest.failf "%s: no %s" w name)
        Workloads.end_to_end_spec)
    Workloads.names;
  (* Every traced run reports the same set of per-layer metrics. On the
     borrowed runs' seed every tiny run reaches all of its layers, so a
     traced run there fails only on a wrong answer or an unreached
     layer. *)
  let layer_names w =
    let r, _ = Workloads.traced ~tiny:true ~seconds:1 ~seed:Workloads.borrow_seed w in
    Alcotest.(check (list string)) (w ^ " traced failures") [] r.Common.failures;
    Alcotest.(check int) (w ^ " traced failed") 0 r.Common.failed;
    List.sort compare (List.map (fun (x : Common.metric) -> x.name) r.Common.metrics)
  in
  let first = layer_names (List.hd Workloads.names) in
  List.iter
    (fun w -> Alcotest.(check (list string)) (w ^ " per-layer names") first (layer_names w))
    (List.tl Workloads.names)

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "same seed, same inputs" `Quick test_same_seed_same_inputs;
          Alcotest.test_case "relabeled request text" `Quick test_relabeled_text;
        ] );
      ( "checkers",
        [
          Alcotest.test_case "serve-mixed" `Quick test_serve_checker;
          Alcotest.test_case "optimize" `Quick test_optimize_checker;
          Alcotest.test_case "online-stream" `Quick test_online_checker;
        ] );
      ("smoke", [ Alcotest.test_case "every workload end to end" `Quick test_smoke ]);
    ]
