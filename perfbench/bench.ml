(* The benchmark's entry point.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload in this process and prints a header line, one line
   per metric, and as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones, measured untraced; with --trace 1 a
   traced run reports the per-layer ones, and the spans it recorded are
   written to .bench_out/. *)

open Perfbench
open Common

let out_dir = ".bench_out"

let header ~workload ~seed ~seconds ~traced notes =
  let g = Gc.get () in
  T.Obj
    [
      ("commit", T.String (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown"));
      ("nproc", T.Int (Domain.recommended_domain_count ()));
      ("ocaml", T.String Sys.ocaml_version);
      ("workload", T.String workload);
      ("seed", T.Int seed);
      ("seconds", T.Int seconds);
      ("trace", T.Bool traced);
      ("params", T.Obj (List.map (fun (k, v) -> (k, T.String v)) notes));
      ( "gc",
        T.Obj
          [
            ("minor_heap_words", T.Int g.Gc.minor_heap_size);
            ("space_overhead", T.Int g.Gc.space_overhead);
            ("max_overhead", T.Int g.Gc.max_overhead);
            ("allocation_policy", T.Int g.Gc.allocation_policy);
          ] );
    ]

let number v = T.Raw (Printf.sprintf "%.17g" v)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Workloads.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S size the run to about S seconds of measurement");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Workloads.names) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 and seconds = max 1 !seconds and seed = !seed in
  let r, spans =
    if traced then Workloads.traced ~tiny:false ~seconds ~seed !workload
    else Workloads.run ~tiny:false ~seconds ~seed ~traced:false !workload
  in
  let hdr = header ~workload:!workload ~seed ~seconds ~traced r.notes in
  Printf.printf "# header %s\n" (T.to_string hdr);
  List.iter (fun f -> Printf.printf "# FAILED %s\n" (String.escaped f)) (List.rev r.failures);
  Printf.printf "# failed_frac %.17g (%d of %d operations)\n"
    (fratio r.failed r.attempted) r.failed r.attempted;
  List.iter
    (fun (x : metric) ->
      let dir =
        match List.assoc_opt x.name Workloads.end_to_end_spec with
        | Some d -> d ^ " is better"
        | None -> "per-layer"
      in
      Printf.printf "# %-42s %16.6f %-6s %s\n" x.name x.value x.unit dir)
    r.metrics;
  if traced then begin
    Format.printf "# span self times@.%a@?" Spans.pp_self (Spans.aggregate spans)
  end;
  let metrics =
    T.Obj
      (List.map
         (fun (x : metric) ->
           (x.name, T.Obj [ ("value", number x.value); ("unit", T.String x.unit) ]))
         r.metrics)
  in
  let line =
    T.to_string
      (T.Obj
         [
           ("correct", T.Bool (r.failed = 0));
           ("attempted", T.Int r.attempted);
           ("failed", T.Int r.failed);
           ("metrics", metrics);
         ])
  in
  (try
     if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
     let base =
       Filename.concat out_dir
         (Printf.sprintf "%s-seed%d-trace%d" !workload seed (if traced then 1 else 0))
     in
     let oc = open_out (base ^ ".json") in
     Printf.fprintf oc "{\"header\":%s,\"result\":%s}\n" (T.to_string hdr) line;
     close_out oc;
     if traced then Spans.write spans (base ^ ".spans.jsonl")
   with Sys_error e -> prerr_endline ("could not write results: " ^ e));
  print_endline line
