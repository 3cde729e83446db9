(* Metrics format tests, on literal snapshots and the histogram
   accumulator:

   - histogram buckets come out cumulative, monotone, ending in +Inf
     with the last bucket equal to the observation count;
   - [log_buckets] rejects ladders that are not finite and growing;
   - exposition is byte-deterministic, [of_prometheus] / [of_json]
     invert the renderers, and [of_prometheus] rejects malformed
     input;
   - the human table shows every series, with bucket-resolution
     quantiles for histograms. *)

module M = Service.Metrics
module T = Packing.Telemetry

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ------------------------------------------------------------------ *)
(* Histogram shape                                                     *)
(* ------------------------------------------------------------------ *)

let test_histogram_cumulative () =
  let h = M.histogram [| 0.1; 1.0; 10.0 |] in
  List.iter (M.observe h) [ 0.05; 0.5; 0.5; 5.0; 50.0 ];
  match M.buckets h with
  | M.Sample _ -> Alcotest.fail "expected buckets"
  | M.Buckets { le; cumulative; sum; count } ->
    Alcotest.(check int) "+Inf bucket appended" 4 (Array.length le);
    Alcotest.(check bool) "ladder ends in +Inf" true (le.(3) = infinity);
    Alcotest.(check (array int)) "cumulative counts" [| 1; 3; 4; 5 |]
      cumulative;
    Alcotest.(check int) "count is the total" 5 count;
    Alcotest.(check (float 1e-9)) "sum of observations" 56.05 sum;
    let monotone = ref true in
    Array.iteri
      (fun i c -> if i > 0 && c < cumulative.(i - 1) then monotone := false)
      cumulative;
    Alcotest.(check bool) "cumulative is monotone" true !monotone

let arb_observations =
  QCheck.(list_of_size Gen.(0 -- 200) (float_bound_exclusive 100.0))

let prop_histogram_totals obs =
  let h = M.histogram (M.log_buckets ~lo:0.01 ~ratio:3.0 ~count:6) in
  List.iter (M.observe h) obs;
  match M.buckets h with
  | M.Sample _ -> false
  | M.Buckets { cumulative; sum; count; _ } ->
    count = List.length obs
    && cumulative.(Array.length cumulative - 1) = count
    && abs_float (sum -. List.fold_left ( +. ) 0.0 obs) < 1e-6

let expect_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s did not raise" what

let test_log_buckets_validation () =
  expect_invalid "lo <= 0" (fun () ->
      M.log_buckets ~lo:0.0 ~ratio:2.0 ~count:3);
  expect_invalid "infinite lo" (fun () ->
      M.log_buckets ~lo:infinity ~ratio:2.0 ~count:3);
  expect_invalid "ratio <= 1" (fun () ->
      M.log_buckets ~lo:1.0 ~ratio:1.0 ~count:3);
  expect_invalid "count < 1" (fun () ->
      M.log_buckets ~lo:1.0 ~ratio:2.0 ~count:0);
  Alcotest.(check (array (float 1e-12))) "geometric ladder"
    [| 0.5; 1.0; 2.0; 4.0 |]
    (M.log_buckets ~lo:0.5 ~ratio:2.0 ~count:4);
  let increasing a =
    let ok = ref true in
    Array.iteri (fun i x -> if i > 0 && x <= a.(i - 1) then ok := false) a;
    !ok
  in
  Alcotest.(check bool) "latency ladder increasing" true
    (increasing M.latency_buckets);
  Alcotest.(check bool) "node ladder increasing" true
    (increasing M.node_buckets)

(* ------------------------------------------------------------------ *)
(* Rendering: determinism and round trips                              *)
(* ------------------------------------------------------------------ *)

(* A literal snapshot in canonical order, with escapes in a help text
   and a label value. *)
let populated () =
  let sample labels v = { M.labels; value = M.Sample v } in
  [
    {
      M.name = "inflight";
      kind = M.Gauge;
      help = "a gauge";
      samples = [ sample [] 2.0 ];
    };
    {
      M.name = "lat_seconds";
      kind = M.Histogram;
      help = "latency";
      samples =
        [
          {
            M.labels = [ ("cache", "hit\nmiss") ];
            value =
              M.Buckets
                {
                  le = [| 0.001; 0.1; 1.0; infinity |];
                  cumulative = [| 1; 2; 3; 4 |];
                  sum = 5.5505;
                  count = 4;
                };
          };
        ];
    };
    {
      M.name = "req_total";
      kind = M.Counter;
      help = "with \"quotes\" and back\\slash";
      samples =
        [
          sample [ ("op", "min-time"); ("status", "error") ] 1.0;
          sample [ ("op", "solve"); ("status", "ok") ] 7.0;
        ];
    };
  ]

let test_exposition_deterministic () =
  let s = populated () in
  Alcotest.(check string) "same snapshot renders identically"
    (M.to_prometheus s) (M.to_prometheus s);
  Alcotest.(check string) "same snapshot, same JSON"
    (T.to_string (M.to_json s))
    (T.to_string (M.to_json s))

let test_prometheus_round_trip () =
  let s = populated () in
  let text = M.to_prometheus s in
  match M.of_prometheus text with
  | Error e -> Alcotest.failf "own exposition rejected: %s" e
  | Ok s' ->
    Alcotest.(check string) "parse inverts render" text (M.to_prometheus s');
    Alcotest.(check bool) "parse restores the literal snapshot" true (s' = s)

let test_json_round_trip () =
  let s = populated () in
  let j = T.to_string (M.to_json s) in
  match T.of_string j with
  | Error e -> Alcotest.failf "snapshot JSON unparseable: %s" e
  | Ok doc -> (
    match M.of_json doc with
    | Error e -> Alcotest.failf "own JSON rejected: %s" e
    | Ok s' ->
      Alcotest.(check string) "JSON round-trip preserves the snapshot"
        (M.to_prometheus s) (M.to_prometheus s');
      Alcotest.(check bool) "JSON restores the literal snapshot" true (s' = s))

let test_of_prometheus_rejects_malformed () =
  let cases =
    [
      ("sample without TYPE", "orphan_total 1\n");
      ( "kind clash",
        "# TYPE x counter\nx 1\n# TYPE x gauge\nx 2\n" );
      ( "buckets missing +Inf",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n" );
      ( "non-cumulative buckets",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n\
         h_sum 1\nh_count 3\n" );
      ( "duplicate sample",
        "# TYPE x counter\nx 1\nx 2\n" );
    ]
  in
  List.iter
    (fun (what, text) ->
      match M.of_prometheus text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "of_prometheus accepted %s" what)
    cases

(* ------------------------------------------------------------------ *)
(* Human table                                                         *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_pp_table () =
  let text = Format.asprintf "%a" M.pp_table (populated ()) in
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "table shows %S" line) true
        (contains text line))
    [
      "inflight (gauge) — a gauge";
      "lat_seconds (histogram) — latency";
      "req_total (counter)";
      "op=solve,status=ok";
      "op=min-time,status=error";
      (* 4 observations: the 2nd lands in le=0.1, the 4th only in +Inf *)
      "count=4 sum=5.5505 p50<=0.1 p99<=+Inf";
    ];
  let empty =
    [
      {
        M.name = "idle_seconds";
        kind = M.Histogram;
        help = "";
        samples =
          [ { M.labels = []; value = M.buckets (M.histogram [| 1.0 |]) } ];
      };
    ]
  in
  Alcotest.(check bool) "empty histogram has no quantiles" true
    (contains
       (Format.asprintf "%a" M.pp_table empty)
       "count=0 sum=0 p50- p99-")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "metrics"
    [
      ( "histograms",
        [
          Alcotest.test_case "buckets cumulative, +Inf, count, sum" `Quick
            test_histogram_cumulative;
          qtest ~count:100 "count and sum match the observations"
            arb_observations prop_histogram_totals;
          Alcotest.test_case "log_buckets validates its ladder" `Quick
            test_log_buckets_validation;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "exposition is byte-deterministic" `Quick
            test_exposition_deterministic;
          Alcotest.test_case "of_prometheus inverts to_prometheus" `Quick
            test_prometheus_round_trip;
          Alcotest.test_case "of_json inverts to_json" `Quick
            test_json_round_trip;
          Alcotest.test_case "of_prometheus rejects malformed input" `Quick
            test_of_prometheus_rejects_malformed;
        ] );
      ( "table rendering",
        [
          Alcotest.test_case "pp_table shows series and quantiles" `Quick
            test_pp_table;
        ] );
    ]
