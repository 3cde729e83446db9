(* fpga_place: command-line front end for the packing-class placement
   engine. See `fpga_place --help` and the instance format documented in
   Fpga.Instance_io. *)

open Cmdliner

let read_instance path =
  try Ok (Fpga.Instance_io.parse_file path) with
  | Failure msg -> Error msg
  | Sys_error msg -> Error msg

let chip_conv =
  let parse s =
    match String.split_on_char 'x' (String.lowercase_ascii s) with
    | [ w; h ] -> (
      match (int_of_string_opt w, int_of_string_opt h) with
      | Some w, Some h when w > 0 && h > 0 -> Ok (Fpga.Chip.create ~w ~h)
      | _ -> Error (`Msg "expected WxH with positive integers"))
    | _ -> Error (`Msg "expected WxH, e.g. 32x32")
  in
  let print fmt c = Format.fprintf fmt "%dx%d" (Fpga.Chip.width c) (Fpga.Chip.height c) in
  Arg.conv (parse, print)

(* E0xE1x...xE(d-1): a container extent tuple of any dimension. *)
let dims_conv =
  let parse s =
    let parts = String.split_on_char 'x' (String.lowercase_ascii s) in
    let ints = List.map int_of_string_opt parts in
    if parts <> [] && List.for_all (function Some e -> e > 0 | None -> false) ints
    then Ok (Array.of_list (List.map Option.get ints))
    else Error (`Msg "expected positive extents, e.g. 8x6x14")
  in
  let print fmt a =
    Format.fprintf fmt "%s"
      (String.concat "x" (Array.to_list (Array.map string_of_int a)))
  in
  Arg.conv (parse, print)

let container_opt =
  Arg.(value & opt (some dims_conv) None
       & info [ "container" ] ~docv:"E0x..xE(d-1)"
           ~doc:"Target container extents, one per instance axis — the \
                 dimension-generic alternative to --chip/--time. Overrides \
                 the file's `container` line.")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Instance file.")

let chip_opt =
  Arg.(value & opt (some chip_conv) None
       & info [ "chip" ] ~docv:"WxH" ~doc:"Target chip, overriding the file.")

let time_opt =
  Arg.(value & opt (some int) None
       & info [ "time" ] ~docv:"T" ~doc:"Makespan budget, overriding the file.")

let render_flag =
  Arg.(value & flag & info [ "render" ] ~doc:"Render chip occupancy over time.")

let quiet_flag =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Print only the verdict/optimum.")

let resolve_chip io = function
  | Some c -> Ok c
  | None -> (
    match io.Fpga.Instance_io.chip with
    | Some c -> Ok c
    | None -> Error "no chip: pass --chip WxH or add a `chip` line to the file")

let resolve_time io = function
  | Some t -> Ok t
  | None -> (
    match io.Fpga.Instance_io.t_max with
    | Some t -> Ok t
    | None -> Error "no time budget: pass --time T or add a `time` line")

let resolve_chip_time io chip time =
  Result.bind (resolve_chip io chip) (fun chip ->
      Result.map (fun t_max -> (chip, t_max)) (resolve_time io time))

(* Resolve the target container for a dimension-generic subcommand:
   --container, then the file's `container` line, then (3-dimensional
   instances only) the chip/time surface. *)
let resolve_container io ~chip ~time container_arg =
  let inst = io.Fpga.Instance_io.instance in
  let d = Packing.Instance.dim inst in
  let of_extents exts =
    if Array.length exts <> d then
      Error
        (Printf.sprintf "container has %d extents but the instance is %d-dimensional"
           (Array.length exts) d)
    else
      try Ok (`Container (Geometry.Container.make exts))
      with Invalid_argument m -> Error m
  in
  match container_arg with
  | Some exts -> of_extents exts
  | None -> (
    match io.Fpga.Instance_io.container with
    | Some c ->
      if Geometry.Container.dim c <> d then
        Error "the file's container dimension does not match its tasks"
      else Ok (`Container c)
    | None ->
      if d = 3 then
        Result.map (fun ct -> `Chip ct) (resolve_chip_time io chip time)
      else
        Error
          "no container: pass --container E0x..xE(d-1) or add a `container` \
           line to the file")

let container_of = function
  | `Chip (chip, t_max) -> Fpga.Chip.container chip ~t_max
  | `Container c -> c

let err msg =
  Format.eprintf "error: %s@." msg;
  1

(* The input step: read FILE and resolve the target the subcommand
   needs, from the command line first and the file second. *)
let read_input resolve file =
  Result.bind (read_instance file) (fun io ->
      Result.map (fun target -> (io.Fpga.Instance_io.instance, target)) (resolve io))

(* Continue with [k] on [Ok]; report an [Error] and exit 1. *)
let with_ok result k = match result with Error msg -> err msg | Ok x -> k x

let chip_input =
  Term.(const (fun file chip -> read_input (fun io -> resolve_chip io chip) file)
        $ file_arg $ chip_opt)

let time_input =
  Term.(const (fun file time -> read_input (fun io -> resolve_time io time) file)
        $ file_arg $ time_opt)

let chip_time_input =
  Term.(const (fun file chip time ->
            read_input (fun io -> resolve_chip_time io chip time) file)
        $ file_arg $ chip_opt $ time_opt)

let container_input =
  Term.(const (fun file chip time container ->
            read_input (fun io -> resolve_container io ~chip ~time container) file)
        $ file_arg $ chip_opt $ time_opt $ container_opt)

(* Label + origin tuple per task, for instances outside the 3-dimensional
   chip surface (no Gantt/occupancy rendering there). *)
let show_placement_ddim ~quiet inst placement =
  if not quiet then begin
    Format.printf "placement:@.";
    for i = 0 to Packing.Instance.count inst - 1 do
      let o = Geometry.Placement.origin placement i in
      Format.printf "  %-8s at (%s)@."
        (Packing.Instance.label inst i)
        (String.concat ","
           (Array.to_list (Array.map string_of_int o)))
    done
  end

let pp_container fmt c =
  Format.fprintf fmt "%s"
    (String.concat "x"
       (List.init (Geometry.Container.dim c) (fun k ->
            string_of_int (Geometry.Container.extent c k))))

let show_placement ~quiet ~render inst chip t_max placement =
  if not quiet then begin
    Format.printf "schedule:@.";
    for i = 0 to Packing.Instance.count inst - 1 do
      let o = Geometry.Placement.origin placement i in
      Format.printf "  %-8s at (%d,%d) cycles [%d,%d)@."
        (Packing.Instance.label inst i)
        o.(0) o.(1) o.(2)
        (o.(2) + Packing.Instance.duration inst i)
    done;
    Format.printf "%s@." (Geometry.Render.gantt placement);
    if render then
      let container = Fpga.Chip.container chip ~t_max in
      match Geometry.Render.timeline placement ~container with
      | text -> Format.printf "%s@." text
      | exception Invalid_argument msg -> exit (err msg)
  end

let svg_opt =
  Arg.(value & opt (some string) None
       & info [ "svg" ] ~docv:"FILE" ~doc:"Write an SVG storyboard of the schedule.")

let write_svg inst chip t_max placement = function
  | None -> ()
  | Some path ->
    let svg =
      Geometry.Svg.storyboard placement
        ~container:(Fpga.Chip.container chip ~t_max)
        ~labels:(Packing.Instance.label inst)
        ()
    in
    let oc = open_out path in
    output_string oc svg;
    close_out oc;
    Format.printf "wrote %s@." path

let jobs_opt =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for the search; 1 runs sequentially, N > 1 \
                 runs a work-stealing pool: each domain donates alternative \
                 branches from shallow nodes of its subtree and steals the \
                 shallowest available subtree from the fullest victim when \
                 dry.")

let time_limit_opt =
  Arg.(value & opt (some float) None
       & info [ "time-limit" ] ~docv:"S"
           ~doc:"Wall-clock budget in seconds; an expired budget reports a \
                 timeout (exit code 3), never a wrong verdict.")

let stats_opt =
  Arg.(value & opt (some (enum [ ("json", `Json) ])) None
       & info [ "stats" ] ~docv:"FMT"
           ~doc:"Print solver statistics in the given format (only: json). \
                 With --jobs > 1 the report includes per-worker counters.")

(* --stats json: one JSON line on stdout, built only when asked for. *)
let print_stats stats json =
  match stats with Some `Json -> Format.printf "%s@." (json ()) | None -> ()

let trace_opt =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a structured search trace. A .json suffix writes \
                 Chrome trace-event format (load in chrome://tracing or \
                 Perfetto); any other name writes JSONL, one event per line \
                 (see `trace-summary`).")

(* The --trace recorder to thread through a run, and the closure that
   writes the file once the run is done (events live in memory until
   then). *)
let trace_recorder = function
  | None -> (Packing.Trace.null, ignore)
  | Some path ->
    let trace = Packing.Trace.create () in
    let write () =
      let oc = open_out path in
      if Filename.check_suffix path ".json" then
        Packing.Trace.write_chrome trace oc
      else Packing.Trace.write_jsonl trace oc;
      close_out oc;
      Format.eprintf "wrote %s@." path
    in
    (trace, write)

let progress_opt =
  Arg.(value & opt ~vopt:(Some 1.0) (some float) None
       & info [ "progress" ] ~docv:"SECONDS"
           ~doc:"Print a live progress heartbeat to stderr (nodes/s, depth, \
                 decided fraction, bracket) every $(docv) seconds \
                 (default 1.0 when the flag is given bare).")

let heartbeat_line (p : Packing.Telemetry.progress) =
  let b = Buffer.create 96 in
  Printf.bprintf b
    "[%7.1fs] %d nodes (%.0f/s) depth %d decided %.1f%% trail %d" p.elapsed_s
    p.nodes p.nodes_per_s p.max_depth
    (100.0 *. p.decided_fraction)
    p.trail_length;
  (match p.bracket with
  | Some (lo, hi) -> Printf.bprintf b " bracket [%d,%d]" lo hi
  | None -> ());
  (match p.gap with Some g -> Printf.bprintf b " gap %d" g | None -> ());
  Buffer.contents b

(* Heartbeats may fire concurrently from every domain of a parallel
   solve; route them through one serialized writer so lines never
   splice (the same funnel the serve subcommand uses for JSONL). *)
let stderr_writer = lazy (Service.Writer.of_channel stderr)

(* What every solving subcommand builds from its budget, stats and
   observability flags: solver options carrying the --time-limit
   deadline, the --trace recorder and the --progress heartbeat, plus
   the --jobs count, the --stats format and the trace writer. *)
type setup = {
  options : Packing.Opp_solver.options;
  jobs : int;
  stats : [ `Json ] option;
  write_trace : unit -> unit;
}

let setup_term =
  let make jobs time_limit stats trace_file progress =
    let trace, write_trace = trace_recorder trace_file in
    let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) time_limit in
    let options = { Packing.Opp_solver.default_options with trace; deadline } in
    let options =
      match progress with
      | None -> options
      | Some interval ->
        {
          options with
          progress_interval_s = interval;
          on_heartbeat =
            Some
              (fun p ->
                Service.Writer.line (Lazy.force stderr_writer)
                  (heartbeat_line p));
        }
    in
    { options; jobs; stats; write_trace }
  in
  Term.(const make $ jobs_opt $ time_limit_opt $ stats_opt $ trace_opt
        $ progress_opt)

let no_heuristic_flag =
  Arg.(value & flag
       & info [ "no-heuristic" ]
           ~doc:"Skip the stage-2 construction heuristic and go straight to \
                 the branch-and-bound search (useful with --trace to record \
                 search events on instances the heuristic would settle).")

let solve_cmd =
  let run input render quiet svg setup no_heuristic =
    with_ok input @@ fun (inst, target) ->
    let options =
      { setup.options with Packing.Opp_solver.use_heuristic = not no_heuristic }
    in
    let container = container_of target in
    let outcome, pp_report =
      if setup.jobs > 1 then begin
        let r =
          Packing.Parallel_solver.solve ~options ~jobs:setup.jobs inst container
        in
        print_stats setup.stats (fun () ->
            Packing.Parallel_solver.report_to_json r);
        ( r.outcome,
          fun fmt ->
            Format.fprintf fmt "%d jobs, %d tasks, %d steals, %a" r.jobs r.tasks
              r.steals Packing.Opp_solver.pp_stats r.stats )
      end
      else begin
        let outcome, st = Packing.Opp_solver.solve ~options inst container in
        print_stats setup.stats (fun () -> Packing.Opp_solver.stats_to_json st);
        (outcome, fun fmt -> Packing.Opp_solver.pp_stats fmt st)
      end
    in
    setup.write_trace ();
    match outcome with
    | Packing.Opp_solver.Feasible p ->
      (match target with
      | `Chip (chip, t_max) ->
        Format.printf "feasible on %a within %d cycles (%t)@." Fpga.Chip.pp chip
          t_max pp_report;
        show_placement ~quiet ~render inst chip t_max p;
        write_svg inst chip t_max p svg
      | `Container c ->
        Format.printf "feasible in %a (%t)@." pp_container c pp_report;
        show_placement_ddim ~quiet inst p);
      0
    | Packing.Opp_solver.Infeasible ->
      Format.printf "infeasible (%t)@." pp_report;
      2
    | Packing.Opp_solver.Timeout ->
      Format.printf "timeout (%t)@." pp_report;
      3
  in
  let doc = "Decide feasibility of a placement (FeasAT&FindS)." in
  Cmd.v (Cmd.info "solve" ~doc)
    Term.(const run $ container_input $ render_flag $ quiet_flag $ svg_opt
          $ setup_term $ no_heuristic_flag)

(* Collect the probe trace for --stats json; the returned callback is
   handed to the Problems driver as [on_probe]. *)
let probe_collector () =
  let acc = ref [] in
  let on_probe p = acc := p :: !acc in
  ((fun () -> List.rev !acc), on_probe)

(* One-line JSON for an anytime minimization: status, value/bounds, and
   the per-probe trace. *)
let anytime_stats_json ~problem result probes =
  let open Packing.Telemetry in
  let fields =
    match result with
    | Packing.Problems.Optimal { value; _ } -> [ ("value", Int value) ]
    | Packing.Problems.Feasible_incumbent
        { incumbent = { value; _ }; lower_bound; gap } ->
      [ ("value", Int value); ("lower_bound", Int lower_bound); ("gap", Int gap) ]
    | Packing.Problems.Infeasible -> []
    | Packing.Problems.Unknown { lower_bound } ->
      [ ("lower_bound", Int lower_bound) ]
  in
  to_string
    (Obj
       ([
          ("problem", String problem);
          ("status", String (Packing.Problems.status_string result));
        ]
       @ fields
       @ [
           ("probes", List (List.map Packing.Problems.probe_json probes));
           ( "bounds",
             bounds_to_json
               (List.fold_left
                  (fun acc (p : Packing.Problems.probe) ->
                    add_bound_counters acc p.Packing.Problems.bounds)
                  [] probes) );
         ]))

(* The anytime reporter shared by min-time, min-extent and min-area:
   run the minimization, write the trace, print the --stats json line,
   then the outcome's message and placement. The exit code is 0 for a
   proven optimum, 2 for proven infeasibility and 3 when the budget ran
   out. *)
let report_anytime setup ~problem ~show ~optimal ~incumbent ~infeasible
    ~unknown minimize =
  let probes, on_probe = probe_collector () in
  let result = minimize ~options:setup.options ~jobs:setup.jobs ~on_probe in
  setup.write_trace ();
  print_stats setup.stats (fun () ->
      anytime_stats_json ~problem result (probes ()));
  match result with
  | Packing.Problems.Optimal { value; placement } ->
    Format.printf "%s@." (optimal value);
    show value placement;
    0
  | Packing.Problems.Feasible_incumbent
      { incumbent = { value; placement }; lower_bound; gap } ->
    Format.printf "%s (proven lower bound %d, gap %d)@." (incumbent value)
      lower_bound gap;
    show value placement;
    3
  | Packing.Problems.Infeasible ->
    Format.printf "%s@." infeasible;
    2
  | Packing.Problems.Unknown { lower_bound } ->
    Format.printf "%s@." (unknown lower_bound);
    3

let min_time_cmd =
  let run input render quiet setup =
    with_ok input @@ fun (inst, chip) ->
    let on = Format.asprintf "%a" Fpga.Chip.pp chip in
    report_anytime setup ~problem:"min-time"
      ~show:(show_placement ~quiet ~render inst chip)
      ~optimal:(Printf.sprintf "minimal makespan on %s: %d cycles" on)
      ~incumbent:
        (Printf.sprintf "budget exhausted: best makespan found on %s: %d cycles"
           on)
      ~infeasible:"no makespan works: a task overflows the chip"
      ~unknown:
        (Printf.sprintf
           "budget exhausted before any schedule was found (makespan >= %d)")
      (fun ~options ~jobs ~on_probe ->
        Packing.Problems.minimize_time ~options ~jobs ~on_probe inst
          ~w:(Fpga.Chip.width chip) ~h:(Fpga.Chip.height chip))
  in
  let doc = "Minimize the makespan on a fixed chip (MinT&FindS / SPP)." in
  Cmd.v (Cmd.info "min-time" ~doc)
    Term.(const run $ chip_input $ render_flag $ quiet_flag $ setup_term)

let min_extent_cmd =
  let axis_opt =
    Arg.(value & opt (some int) None
         & info [ "axis" ] ~docv:"K"
             ~doc:"Axis whose extent to minimize (default: the instance's \
                   objective axis). With a 2-dimensional instance and axis 1 \
                   this is open-ended strip packing.")
  in
  let run file chip time container_arg axis quiet setup =
    with_ok (read_instance file) @@ fun io ->
    let inst = io.Fpga.Instance_io.instance in
    let d = Packing.Instance.dim inst in
    let axis = Option.value axis ~default:(Packing.Instance.objective_axis inst) in
    if axis < 0 || axis >= d then
      err (Printf.sprintf "axis %d out of range for a %d-dimensional instance" axis d)
    else
      (* The base's extent along the minimized axis is ignored, so the
         3-dimensional chip surface needs no time budget when the time
         axis itself is being minimized. *)
      let time = if time = None && d = 3 && axis = 2 then Some 1 else time in
      with_ok (resolve_container io ~chip ~time container_arg) @@ fun target ->
      report_anytime setup ~problem:"min-extent"
        ~show:(fun _ -> show_placement_ddim ~quiet inst)
        ~optimal:(Printf.sprintf "minimal extent along axis %d: %d" axis)
        ~incumbent:
          (Printf.sprintf "budget exhausted: best extent found along axis %d: %d"
             axis)
        ~infeasible:"no extent works: a task overflows the base cross-section"
        ~unknown:
          (Printf.sprintf
             "budget exhausted before any placement was found (extent >= %d)")
        (fun ~options ~jobs ~on_probe ->
          Packing.Problems.minimize_extent ~options ~jobs ~on_probe inst ~axis
            ~base:(container_of target))
  in
  let doc =
    "Minimize the container extent along one axis (dimension-generic \
     MinT&FindS; strip packing when the instance is 2-dimensional)."
  in
  Cmd.v (Cmd.info "min-extent" ~doc)
    Term.(const run $ file_arg $ chip_opt $ time_opt $ container_opt $ axis_opt
          $ quiet_flag $ setup_term)

let min_area_cmd =
  let run input render quiet setup =
    with_ok input @@ fun (inst, t_max) ->
    report_anytime setup ~problem:"min-area"
      ~show:(fun side ->
        show_placement ~quiet ~render inst (Fpga.Chip.square side) t_max)
      ~optimal:(fun v -> Printf.sprintf "minimal chip for %d cycles: %dx%d" t_max v v)
      ~incumbent:(fun v ->
        Printf.sprintf "budget exhausted: best chip found for %d cycles: %dx%d"
          t_max v v)
      ~infeasible:
        (Printf.sprintf "no chip works: the critical path exceeds %d cycles" t_max)
      ~unknown:
        (Printf.sprintf "budget exhausted before any chip was found (side >= %d)")
      (fun ~options ~jobs ~on_probe ->
        Packing.Problems.minimize_base ~options ~jobs ~on_probe inst ~t_max)
  in
  let doc = "Minimize a quadratic chip for a time budget (MinA&FindS / BMP)." in
  Cmd.v (Cmd.info "min-area" ~doc)
    Term.(const run $ time_input $ render_flag $ quiet_flag $ setup_term)

let pareto_cmd =
  let h_min_arg =
    Arg.(value & opt int 1 & info [ "h-min" ] ~docv:"H" ~doc:"Smallest chip size.")
  in
  let h_max_arg =
    Arg.(required & opt (some int) None
         & info [ "h-max" ] ~docv:"H" ~doc:"Largest chip size.")
  in
  let no_prec =
    Arg.(value & flag
         & info [ "no-precedence" ]
             ~doc:"Drop the precedence constraints (dashed curve of Fig. 7).")
  in
  let sweep_axis_opt =
    Arg.(value & opt (some int) None
         & info [ "sweep-axis" ] ~docv:"K"
             ~doc:"Sweep the extent of axis $(docv) between --h-min and \
                   --h-max instead of the quadratic chip side; requires \
                   --min-axis and a base container (--container or a \
                   `container` line).")
  in
  let min_axis_opt =
    Arg.(value & opt (some int) None
         & info [ "min-axis" ] ~docv:"K"
             ~doc:"Axis whose extent to minimize at each sweep step (with \
                   --sweep-axis).")
  in
  let run file h_min h_max no_prec sweep_axis min_axis container_arg quiet setup
      =
    with_ok (read_instance file) @@ fun io ->
    let inst = io.Fpga.Instance_io.instance in
    let inst = if no_prec then Packing.Instance.without_precedence inst else inst in
    let { options; jobs; _ } = setup in
    let probes, on_probe = probe_collector () in
    let front =
      match (sweep_axis, min_axis) with
      | None, None ->
        Ok (Packing.Problems.pareto_front ~options ~jobs ~on_probe inst ~h_min ~h_max)
      | Some sweep, Some minimize ->
        let d = Packing.Instance.dim inst in
        if sweep < 0 || sweep >= d || minimize < 0 || minimize >= d then
          Error (Printf.sprintf "axes must lie in 0..%d for this instance" (d - 1))
        else if sweep = minimize then Error "--sweep-axis and --min-axis must differ"
        else
          (* A 3-dimensional file without a container still names a base
             through its chip surface. *)
          Result.map
            (fun target ->
              Packing.Problems.pareto_front_axes ~options ~jobs ~on_probe inst
                ~sweep ~minimize ~lo:h_min ~hi:h_max ~base:(container_of target))
            (resolve_container io ~chip:None ~time:None container_arg)
      | _ -> Error "--sweep-axis and --min-axis must be given together"
    in
    with_ok front @@ fun { Packing.Problems.points; complete } ->
    setup.write_trace ();
    print_stats setup.stats (fun () ->
        let open Packing.Telemetry in
        to_string
          (Obj
             [
               ("problem", String "pareto");
               ("complete", Bool complete);
               ("points", List (List.map (fun (h, t) -> List [ Int h; Int t ]) points));
               ("probes", List (List.map Packing.Problems.probe_json (probes ())));
             ]));
    (match sweep_axis with
    | None ->
      if not quiet then Format.printf "chip  makespan@.";
      List.iter (fun (h, t) -> Format.printf "%dx%d  %d@." h h t) points
    | Some sweep ->
      if not quiet then
        Format.printf "axis%d  axis%d@." sweep (Option.value min_axis ~default:(-1));
      List.iter (fun (s, e) -> Format.printf "%d  %d@." s e) points);
    if complete then 0
    else begin
      Format.printf
        "(budget exhausted: the front may be missing or overstating points)@.";
      3
    end
  in
  let doc = "Compute the chip-size/makespan Pareto front (paper Fig. 7)." in
  Cmd.v (Cmd.info "pareto" ~doc)
    Term.(const run $ file_arg $ h_min_arg $ h_max_arg $ no_prec
          $ sweep_axis_opt $ min_axis_opt $ container_opt $ quiet_flag
          $ setup_term)

(* Solve the chip/time instance and hand the witness to [k]; without
   one there is [nothing] to do. *)
let with_witness ~nothing inst chip t_max k =
  match Packing.Opp_solver.solve inst (Fpga.Chip.container chip ~t_max) with
  | Packing.Opp_solver.Feasible p, _ -> k p
  | Packing.Opp_solver.Infeasible, _ ->
    Format.printf "infeasible: nothing to %s@." nothing;
    2
  | Packing.Opp_solver.Timeout, _ ->
    Format.printf "timeout@.";
    3

let simulate_cmd =
  let run input =
    with_ok input @@ fun (inst, (chip, t_max)) ->
    with_witness ~nothing:"simulate" inst chip t_max @@ fun p ->
    let report = Fpga.Simulator.run inst p ~chip in
    Format.printf "%a@." Fpga.Simulator.pp_report report;
    if report.Fpga.Simulator.ok then 0 else 2
  in
  let doc = "Solve, then replay the placement on the chip simulator." in
  Cmd.v (Cmd.info "simulate" ~doc) Term.(const run $ chip_time_input)

let check_cmd =
  let schedule_arg =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"SCHEDULE" ~doc:"Schedule file (start/place lines).")
  in
  let run input schedule_file render quiet =
    with_ok input @@ fun (inst, (chip, t_max)) ->
    let entries =
      try
        let ic = open_in schedule_file in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Ok (Fpga.Schedule_io.parse inst text)
      with Failure msg | Sys_error msg -> Error msg
    in
    with_ok entries @@ fun entries ->
    (* Fully positioned schedules are validated directly; start times
       alone go through the FixedS solver. *)
    match Fpga.Schedule_io.placement_of inst entries with
    | Some p ->
      let violations =
        Geometry.Placement.check p
          ~container:(Fpga.Chip.container chip ~t_max)
          ~precedes:(Packing.Instance.precedes inst)
      in
      if violations = [] then begin
        Format.printf "placement is feasible@.";
        show_placement ~quiet ~render inst chip t_max p;
        0
      end
      else begin
        List.iter
          (Format.printf "violation: %a@." Geometry.Placement.pp_violation)
          violations;
        2
      end
    | None -> (
      match Fpga.Schedule_io.schedule_array inst entries with
      | exception Failure msg -> err msg
      | schedule -> (
        match
          Packing.Problems.feasible_fixed_schedule inst ~w:(Fpga.Chip.width chip)
            ~h:(Fpga.Chip.height chip) ~t_max ~schedule
        with
        | Packing.Problems.Sat p ->
          Format.printf "schedule is realizable@.";
          show_placement ~quiet ~render inst chip t_max p;
          0
        | Packing.Problems.Unsat ->
          Format.printf "schedule is NOT realizable on %a within %d cycles@."
            Fpga.Chip.pp chip t_max;
          2
        | Packing.Problems.Undecided ->
          Format.printf "budget exhausted: schedule undecided@.";
          3))
  in
  let doc =
    "Check a schedule file against a chip (FeasA&FixedS); `place` lines are \
     validated geometrically, `start` lines trigger the 2D placement search."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ chip_time_input $ schedule_arg $ render_flag $ quiet_flag)

let bounds_cmd =
  let run input stats =
    with_ok input @@ fun (inst, (chip, t_max)) ->
    let container = Fpga.Chip.container chip ~t_max in
    let engine = Packing.Bound_engine.create () in
    let verdicts = Packing.Bound_engine.run_all engine inst container in
    Format.printf "volume: %d of %d cells-cycles@."
      (Packing.Instance.total_volume inst)
      (Geometry.Container.volume container);
    Format.printf "critical path: %d of %d cycles@."
      (Packing.Instance.critical_path inst)
      t_max;
    List.iter
      (fun (name, v) ->
        Format.printf "%-14s %a@." name Packing.Bound_engine.pp_verdict v)
      verdicts;
    let refuted =
      List.exists
        (function _, Packing.Bound_engine.Infeasible _ -> true | _ -> false)
        verdicts
    in
    print_stats stats (fun () ->
        let open Packing.Telemetry in
        to_string
          (Obj
             [
               ("problem", String "bounds");
               ( "verdicts",
                 Obj
                   (List.map
                      (fun (name, v) -> (name, Packing.Bound_engine.verdict_json v))
                      verdicts) );
               ("bounds", bounds_to_json (Packing.Bound_engine.counters engine));
             ]));
    if refuted then begin
      Format.printf "verdict: infeasible@.";
      2
    end
    else begin
      Format.printf "verdict: bounds are silent, a search is needed@.";
      0
    end
  in
  let doc = "Evaluate the stage-1 lower bounds without searching." in
  Cmd.v (Cmd.info "bounds" ~doc) Term.(const run $ chip_time_input $ stats_opt)

let knapsack_cmd =
  let run input =
    with_ok input @@ fun (inst, (chip, t_max)) ->
    (* Value = computation volume: prefer keeping the heavy work. *)
    let value i = Geometry.Box.volume (Packing.Instance.box inst i) in
    match Packing.Knapsack.solve inst (Fpga.Chip.container chip ~t_max) ~value with
    | None ->
      Format.printf "no non-empty selection fits@.";
      2
    | Some { Packing.Knapsack.value; selected; _ } ->
      Format.printf "best selection (value %d):" value;
      List.iter (fun i -> Format.printf " %s" (Packing.Instance.label inst i)) selected;
      Format.printf "@.";
      0
  in
  let doc =
    "Select the most valuable packable subset of tasks (orthogonal knapsack)."
  in
  Cmd.v (Cmd.info "knapsack" ~doc) Term.(const run $ chip_time_input)

let vcd_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the VCD here.")
  in
  let run input out =
    with_ok input @@ fun (inst, (chip, t_max)) ->
    with_witness ~nothing:"dump" inst chip t_max @@ fun p ->
    let vcd = Fpga.Vcd.of_placement inst p ~chip () in
    (match out with
    | None -> print_string vcd
    | Some path ->
      let oc = open_out path in
      output_string oc vcd;
      close_out oc;
      Format.printf "wrote %s@." path);
    0
  in
  let doc = "Solve, then dump the schedule as a VCD waveform." in
  Cmd.v (Cmd.info "vcd" ~doc) Term.(const run $ chip_time_input $ out_arg)

let ilp_cmd =
  let emit_flag =
    Arg.(value & flag & info [ "emit" ] ~doc:"Print the LP model itself.")
  in
  let run input emit =
    with_ok input @@ fun (inst, (chip, t_max)) ->
    let container = Fpga.Chip.container chip ~t_max in
    let size = Baseline.Ilp_model.size_of inst container in
    Format.printf "grid 0-1 model: %a@." Baseline.Ilp_model.pp_size size;
    if emit then print_string (Baseline.Ilp_model.to_lp inst container);
    0
  in
  let doc =
    "Show (or emit) the grid-indexed 0-1 ILP model the paper argues against."
  in
  Cmd.v (Cmd.info "ilp" ~doc) Term.(const run $ chip_time_input $ emit_flag)

let trace_summary_cmd =
  let trace_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE"
             ~doc:"JSONL trace file written by --trace.")
  in
  let run file =
    let ic = open_in file in
    let result = Packing.Trace.Summary.of_channel ic in
    close_in ic;
    match result with
    | Error msg -> err (file ^ ": " ^ msg)
    | Ok s ->
      Format.printf "%a@?" Packing.Trace.Summary.pp s;
      0
  in
  let doc =
    "Summarize a JSONL search trace: per-phase, per-bound and per-worker \
     time breakdowns, rule conflicts, probes, and incumbent history."
  in
  Cmd.v (Cmd.info "trace-summary" ~doc) Term.(const run $ trace_arg)

let serve_cmd =
  let serve_jobs =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains draining the request stream; with N > 1 \
                   responses appear in completion order (match them by id).")
  in
  let cache_size =
    Arg.(value & opt int 1024
         & info [ "cache-size" ] ~docv:"N"
             ~doc:"Result-cache capacity in entries (LRU eviction).")
  in
  let no_cache =
    Arg.(value & flag
         & info [ "no-cache" ]
             ~doc:"Disable the canonicalization-keyed result cache; every \
                   request reaches the solver.")
  in
  let max_nodes =
    Arg.(value & opt (some int) None
         & info [ "max-nodes" ] ~docv:"N"
             ~doc:"Server-side cap on per-request node budgets; request \
                   budgets are clamped to it.")
  in
  let max_time =
    Arg.(value & opt (some float) None
         & info [ "max-time" ] ~docv:"S"
             ~doc:"Server-side cap on per-request wall-clock budgets, \
                   seconds; doubles as the default budget for requests that \
                   name none.")
  in
  let solver_jobs =
    Arg.(value & opt int 1
         & info [ "solver-jobs" ] ~docv:"N"
             ~doc:"Default solver domains per request (a request's own \
                   \"jobs\" field overrides it).")
  in
  let heartbeat =
    Arg.(value & opt ~vopt:(Some 1.0) (some float) None
         & info [ "heartbeat" ] ~docv:"SECONDS"
             ~doc:"Stream heartbeat and incumbent event lines \
                   ({\"ev\":\"heartbeat\"|\"incumbent\"}) on this cadence \
                   (default 1.0 when the flag is given bare).")
  in
  let port =
    Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"PORT"
             ~doc:"Serve a TCP socket on 127.0.0.1:$(docv) (one connection \
                   at a time, same protocol and shared cache) instead of \
                   stdin/stdout.")
  in
  let metrics_port =
    Arg.(value & opt (some int) None
         & info [ "metrics-port" ] ~docv:"PORT"
             ~doc:"Expose the server's metrics on 127.0.0.1:$(docv): every \
                   connection receives one Prometheus text-format \
                   exposition and is closed.")
  in
  let metrics_snapshot =
    Arg.(value & opt (some string) None
         & info [ "metrics-snapshot" ] ~docv:"FILE"
             ~doc:"Append a JSONL metrics snapshot line to $(docv) on the \
                   heartbeat cadence (1.0 s unless --heartbeat says \
                   otherwise), plus one final snapshot at shutdown.")
  in
  let run serve_jobs cache_size no_cache max_nodes max_time solver_jobs
      heartbeat port metrics_port metrics_snapshot stats =
    let config =
      {
        Service.Server.jobs = serve_jobs;
        cache_capacity = cache_size;
        use_cache = not no_cache;
        max_nodes;
        max_time_s = max_time;
        heartbeat_s = heartbeat;
        solver_jobs;
      }
    in
    let server = Service.Server.create ~config () in
    (match metrics_port with
    | Some p -> ignore (Service.Server.serve_metrics server ~port:p)
    | None -> ());
    let stop_dump =
      match metrics_snapshot with
      | Some path ->
        Some
          (Service.Server.start_metrics_dump server ~path
             ~interval_s:(Option.value heartbeat ~default:1.0))
      | None -> None
    in
    (match port with
    | Some port -> Service.Server.serve_tcp server ~port
    | None ->
      let w = Service.Writer.of_channel stdout in
      Service.Server.serve_channel server w stdin;
      print_stats stats (fun () ->
          Packing.Telemetry.to_string (Service.Server.stats_json server)));
    (match stop_dump with Some stop -> stop () | None -> ());
    0
  in
  let doc =
    "Run the placement service: a JSONL request loop (stdin/stdout, or TCP \
     with --port) multiplexing solve/min-time/min-area requests over a \
     domain pool, with a canonicalization-keyed result cache in front of \
     the solver. With --stats json, a final {\"ev\":\"stats\"} line reports \
     request and cache counters at EOF. The server's metrics are read \
     from the counts it keeps; scrape them with --metrics-port, dump them \
     with --metrics-snapshot, or send {\"op\":\"metrics\"} on the \
     request stream."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ serve_jobs $ cache_size $ no_cache $ max_nodes
          $ max_time $ solver_jobs $ heartbeat $ port $ metrics_port
          $ metrics_snapshot $ stats_opt)

let metrics_summary_cmd =
  let metrics_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"A Prometheus text exposition (as scraped from \
                   --metrics-port) or a JSONL snapshot file (as written by \
                   --metrics-snapshot).")
  in
  let run file =
    let ic = open_in_bin file in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (* A snapshot file renders its freshest (last) snapshot line; a
       file with no parseable snapshot line is read as an exposition.
       Both sources end in the same table. *)
    let snapshot_of_line line =
      if String.trim line = "" then None
      else
        match Packing.Telemetry.of_string line with
        | Error _ -> None
        | Ok j ->
          let payload =
            match Packing.Telemetry.member "metrics" j with
            | Some p -> p
            | None -> j
          in
          (match Service.Metrics.of_json payload with
          | Ok s -> Some s
          | Error _ -> None)
    in
    let from_jsonl =
      String.split_on_char '\n' text
      |> List.filter_map snapshot_of_line
      |> List.rev
      |> function
      | s :: _ -> Some s
      | [] -> None
    in
    let result =
      match from_jsonl with
      | Some s -> Ok s
      | None -> Service.Metrics.of_prometheus text
    in
    match result with
    | Error msg -> err (file ^ ": " ^ msg)
    | Ok s ->
      Format.printf "%a@?" Service.Metrics.pp_table s;
      0
  in
  let doc =
    "Render a metrics file as a human table: counters and gauges with \
     their labels, histograms with count, sum and bucket-resolution \
     p50/p99. Accepts both exposition and snapshot formats."
  in
  Cmd.v (Cmd.info "metrics-summary" ~doc) Term.(const run $ metrics_arg)

let export_cmd =
  let which =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"NAME"
             ~doc:
               "Benchmark name ($(b,de) or $(b,codec)), or a path to an \
                instance file to parse and re-print (round-trip check: v1 \
                files re-print byte-identically).")
  in
  let builtin instance side t_max =
    Ok
      {
        Fpga.Instance_io.instance;
        chip = Some (Fpga.Chip.square side);
        t_max = Some t_max;
        container = None;
      }
  in
  let run which =
    with_ok
      (match which with
      | "de" -> builtin Benchmarks.De.instance 32 14
      | "codec" -> builtin Benchmarks.Video_codec.instance 64 59
      | file -> read_instance file)
    @@ fun io ->
    print_string (Fpga.Instance_io.print io);
    0
  in
  let doc = "Print a built-in benchmark or an instance file." in
  Cmd.v (Cmd.info "export" ~doc) Term.(const run $ which)

let online_cmd =
  let file_opt =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"Instance file; every task arrives at time 0 (see \
                   --stagger). Omit it and pass --generate N for a \
                   synthetic arrival stream.")
  in
  let policies =
    [
      ("corner", Fpga.Online.Corner);
      ("first", Fpga.Online.First_fit);
      ("best", Fpga.Online.Best_fit);
      ("worst", Fpga.Online.Worst_fit);
    ]
  in
  let policy_opt =
    Arg.(value
         & opt (enum policies) Fpga.Online.Best_fit
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Fit policy: corner (the historical corner-candidate \
                   scan) or first/best/worst fit over the \
                   maximal-empty-rectangle manager (default: best).")
  in
  let compaction_flag =
    Arg.(value & flag
         & info [ "compaction" ]
             ~doc:"Enable cost-aware defragmentation: when a task cannot be \
                   placed, re-pack the running modules bottom-left — but \
                   commit only when the modeled wait-time saved exceeds the \
                   reconfiguration cost of the moved modules, and never \
                   without placing the blocked task.")
  in
  let move_delay_opt =
    Arg.(value & opt int 1
         & info [ "move-delay" ] ~docv:"N"
             ~doc:"Extra cycles charged per moved module during a \
                   compaction, on top of the --reconfig-model load time.")
  in
  let reconfig_conv =
    let models =
      [
        ("constant", fun n -> Fpga.Reconfig.Constant n);
        ("column", fun n -> Fpga.Reconfig.Per_column n);
        ("cell", fun n -> Fpga.Reconfig.Per_cell n);
      ]
    in
    let parse s =
      match String.split_on_char ':' (String.lowercase_ascii s) with
      | [ kind; n ] when List.mem_assoc kind models -> (
        match int_of_string_opt n with
        | Some n when n >= 0 -> Ok (List.assoc kind models n)
        | _ -> Error (`Msg (Printf.sprintf "expected %s:N with N >= 0" kind)))
      | _ -> Error (`Msg "expected constant:N, column:N or cell:N")
    in
    let print fmt m = Format.fprintf fmt "%a" Fpga.Reconfig.pp m in
    Arg.conv (parse, print)
  in
  let reconfig_opt =
    Arg.(value & opt reconfig_conv (Fpga.Reconfig.Constant 0)
         & info [ "reconfig-model" ] ~docv:"MODEL"
             ~doc:"Configuration-load cost model for moved modules: \
                   constant:N, column:N (per occupied column) or cell:N \
                   (per cell). Default constant:0.")
  in
  let generate_opt =
    Arg.(value & opt (some int) None
         & info [ "generate" ] ~docv:"N"
             ~doc:"Generate a synthetic stream of N tasks instead of \
                   reading FILE (chip defaults to 32x32 unless --chip).")
  in
  let seed_opt =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"S" ~doc:"Stream generator seed.")
  in
  let load_opt =
    Arg.(value & opt float 1.0
         & info [ "load" ] ~docv:"L"
             ~doc:"Offered load of the generated stream: mean area x \
                   duration work per time unit over the chip capacity.")
  in
  let max_extent_opt =
    Arg.(value & opt int 8
         & info [ "max-extent" ] ~docv:"E"
             ~doc:"Maximum footprint side of generated tasks.")
  in
  let max_duration_opt =
    Arg.(value & opt int 12
         & info [ "max-duration" ] ~docv:"D"
             ~doc:"Maximum duration of generated tasks.")
  in
  let arc_probability_opt =
    Arg.(value & opt float 0.1
         & info [ "arc-probability" ] ~docv:"P"
             ~doc:"Probability that a generated task depends on recent \
                   predecessors.")
  in
  let stagger_opt =
    Arg.(value & opt int 0
         & info [ "stagger" ] ~docv:"T"
             ~doc:"With FILE: task i arrives at i*T instead of 0.")
  in
  let run file chip policy compaction move_delay reconfig generate seed load
      max_extent max_duration arc_probability stagger stats trace_file quiet =
    let trace, write_trace = trace_recorder trace_file in
    let result =
      match (file, generate) with
      | None, None -> Error "pass an instance FILE or --generate N"
      | Some f, _ ->
        Result.map
          (fun (inst, chip) ->
            let arrivals =
              List.init (Packing.Instance.count inst) (fun i ->
                  { Fpga.Online.task = i; arrival_time = i * stagger })
            in
            ( chip,
              Fpga.Online.run ~policy ~reconfig ~trace inst arrivals ~chip
                ~compaction ~move_delay ))
          (read_input (fun io -> resolve_chip io chip) f)
      | None, Some n ->
        let chip = Option.value chip ~default:(Fpga.Chip.square 32) in
        let tasks =
          Benchmarks.Generate.arrival_stream ~seed ~n ~chip ~load ~max_extent
            ~max_duration ~arc_probability ()
        in
        Ok
          ( chip,
            Fpga.Online.run_stream ~policy ~reconfig ~trace tasks ~chip
              ~compaction ~move_delay )
    in
    with_ok result @@ fun (chip, r) ->
    let { Fpga.Online.placed; rejected; never_arrived; latency = l; _ } = r in
    if not quiet then begin
      Format.printf "placed %d, rejected %d, never arrived %d (of %d tasks)@."
        placed rejected never_arrived
        (placed + rejected + never_arrived);
      Format.printf "makespan %d, utilization %.1f%%, deferrals %d@." r.makespan
        (100.0 *. r.utilization) r.deferrals;
      Format.printf "compactions %d (moved %d modules, %d cycles charged)@."
        r.compactions r.moved_tasks r.move_cycles;
      Format.printf
        "placement latency: p50 %.1f us, p99 %.1f us, max %.1f us (%d \
         samples)@."
        l.p50_us l.p99_us l.max_us l.samples
    end;
    print_stats stats (fun () ->
        let open Packing.Telemetry in
        to_string
          (Obj
             [
               ("problem", String "online");
               ("policy", String (fst (List.find (fun (_, p) -> p = policy) policies)));
               ( "chip",
                 String
                   (Printf.sprintf "%dx%d" (Fpga.Chip.width chip)
                      (Fpga.Chip.height chip)) );
               ("compaction", Bool compaction);
               ("move_delay", Int move_delay);
               ("online", online_to_json (Fpga.Online.counters r));
             ]));
    write_trace ();
    if rejected = 0 && never_arrived = 0 then 0 else 2
  in
  let doc =
    "Run the online placement manager over an arrival stream (from an \
     instance file or --generate) and report placements, rejections, \
     utilization and per-placement latency."
  in
  Cmd.v (Cmd.info "online" ~doc)
    Term.(const run $ file_opt $ chip_opt $ policy_opt $ compaction_flag
          $ move_delay_opt $ reconfig_opt $ generate_opt $ seed_opt $ load_opt
          $ max_extent_opt $ max_duration_opt $ arc_probability_opt
          $ stagger_opt $ stats_opt $ trace_opt $ quiet_flag)

let () =
  let doc =
    "Optimal FPGA module placement with temporal precedence constraints \
     (packing-class branch and bound, after Fekete, Köhler and Teich, DATE \
     2001)."
  in
  let info = Cmd.info "fpga_place" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            solve_cmd;
            check_cmd;
            min_time_cmd;
            min_extent_cmd;
            min_area_cmd;
            pareto_cmd;
            simulate_cmd;
            bounds_cmd;
            knapsack_cmd;
            vcd_cmd;
            ilp_cmd;
            export_cmd;
            serve_cmd;
            online_cmd;
            trace_summary_cmd;
            metrics_summary_cmd;
          ]))
