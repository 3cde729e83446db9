(* online-stream: [Online.run_stream] with the CLI defaults (best fit, no
   compaction, move delay 1) over seeded arrival streams on a 32x32 chip
   at offered load 1.0. *)

open Common
module On = Fpga.Online
module FS = Fpga.Free_space

type params = {
  streams : int;
  tasks : int;  (** per stream *)
  setups : int;
  traced_streams : int;  (** streams the traced run attributes *)
}

let params ~seconds = { streams = seconds; tasks = 3000; setups = 15; traced_streams = 3 }
let tiny = { streams = 2; tasks = 1000; setups = 1; traced_streams = 2 }

type pass = {
  reports : On.report array;
  times : float array;  (** wall time of each stream *)
  minor_words : float;
}

let wall_s pass = Array.fold_left ( +. ) 0.0 pass.times

let run_stream tasks =
  On.run_stream ~policy:On.Best_fit tasks ~chip:Inputs.online_chip ~compaction:false
    ~move_delay:1

(* The host-speed kernel runs between streams. *)
let run_pass ~speed streams =
  let mw0 = minor_words () in
  let times = Array.make (Array.length streams) 0.0 in
  let reports =
    Array.mapi
      (fun k tasks ->
        Speed.tick speed;
        let t0 = now () in
        let r = run_stream tasks in
        times.(k) <- now () -. t0;
        r)
      streams
  in
  Speed.tick speed;
  { reports; times; minor_words = minor_words () -. mw0 }

(* Returns the recomputed utilization of every stream. [first] is the
   index of [streams.(0)] among the run's streams. *)
let check_reports ledger ?(first = 0) streams reports =
  Array.mapi
    (fun k tasks ->
      let r = Check.online_stream tasks ~chip:Inputs.online_chip reports.(k) in
      judge ledger
        ~what:(Printf.sprintf "stream %d of seed's streams" (first + k))
        (Result.map ignore r);
      Result.value r ~default:0.0)
    streams

(* [f] is the pass's speed factor; times are in reference time. *)
let end_to_end ~setup_s ~f streams pass utils =
  let tasks = Array.fold_left (fun a s -> a + Array.length s) 0 streams in
  let field g = Array.map (fun (r : On.report) -> f *. g r.On.latency /. 1e3) pass.reports in
  let placed = Array.fold_left (fun a (r : On.report) -> a + r.On.placed) 0 pass.reports in
  let arrived =
    Array.fold_left (fun a (r : On.report) -> a + r.On.placed + r.On.rejected) 0 pass.reports
  in
  [
    m "setup_s" "s" setup_s;
    m "throughput_ops_s" "1/s" (float_of_int tasks /. (f *. wall_s pass));
    m "latency_p50_ms" "ms" (mean (field (fun l -> l.On.p50_us)));
    m "latency_p99_ms" "ms" (mean (field (fun l -> l.On.p99_us)));
    m "proven_frac" "frac" (fratio placed arrived);
    m "utilization" "frac" (mean utils);
    m "heap_peak_mb" "MB" (heap_peak_mb ());
  ]

(* Replay one report's placements through a fresh free-space manager,
   making the same [Free_space] calls [run_stream] made for them, in the
   same order: before each placement, every task whose finish has passed
   is removed, one finish time at a time, newest placement first among
   equal finishes (as [run_stream] retires at each event clock); then a
   fit is queried and the footprint the scheduler chose is occupied.
   Tasks still running after the last placement are retired the same
   way. Only the queries of successful placements are replayed, not the
   scheduler's failed ones. The replay's own fit must be the position
   the scheduler chose, or the replay has left the program's path.
   Returns the MER counts seen, the replay's time inside [Free_space]
   and the first divergence, if any. *)
let replay ~spans k (tasks : On.task array) (r : On.report) =
  let chip = Inputs.online_chip in
  let fs = FS.create ~w:(Fpga.Chip.width chip) ~h:(Fpga.Chip.height chip) in
  let fs_s = ref 0.0 in
  let call name f =
    let t0 = now () in
    let v = f () in
    let t1 = now () in
    fs_s := !fs_s +. (t1 -. t0);
    Spans.add spans ~name ~op:k ~t0 ~t1;
    v
  in
  (* (finish, task), newest placement first. *)
  let running = ref [] and mers = ref [] and diverged = ref None in
  let rec retire_until time =
    match !running with
    | [] -> ()
    | l ->
      let clock = List.fold_left (fun a (f, _) -> min a f) max_int l in
      if clock <= time then begin
        let gone, live = List.partition (fun (f, _) -> f <= clock) l in
        running := live;
        List.iter (fun (_, id) -> call "free_space.remove" (fun () -> FS.remove fs ~id)) gone;
        retire_until time
      end
  in
  List.iter
    (function
      | On.Placed { task; x; y; time } ->
        retire_until time;
        let t = tasks.(task) in
        let diverge why =
          if !diverged = None then
            diverged :=
              Some (Printf.sprintf "task %d placed at (%d,%d) at t=%d: %s" task x y time why)
        in
        (match
           call "free_space.find" (fun () -> FS.find fs ~policy:FS.Best_fit ~w:t.On.w ~h:t.On.h)
         with
        | Some (a, b) when (a, b) = (x, y) -> ()
        | Some (a, b) -> diverge (Printf.sprintf "replayed fit (%d,%d)" a b)
        | None -> diverge "replayed fit none");
        (match
           call "free_space.place" (fun () -> FS.place fs ~id:task ~x ~y ~w:t.On.w ~h:t.On.h)
         with
        | () ->
          mers := float_of_int (FS.mer_count fs) :: !mers;
          running := (time + t.On.duration, task) :: !running
        | exception Invalid_argument e -> diverge e)
      | On.Deferred _ | On.Compacted _ | On.Rejected _ -> ())
    r.On.events;
  retire_until max_int;
  (!mers, !fs_s, !diverged)

(* Mean number of eligible tasks (arrived, predecessors finished) not yet
   started, sampled at each placement. *)
let backlog (tasks : On.task array) (r : On.report) =
  let n = Array.length tasks in
  let start = Array.make n (-1) in
  let order = ref [] in
  List.iter
    (function
      | On.Placed { task; time; _ } ->
        start.(task) <- time;
        order := task :: !order
      | On.Deferred _ | On.Compacted _ | On.Rejected _ -> ())
    r.On.events;
  let eligible =
    Array.init n (fun i ->
        let t = tasks.(i) in
        if start.(i) < 0 then max_int
        else
          List.fold_left
            (fun a p -> max a (start.(p) + tasks.(p).On.duration))
            t.On.arrival t.On.preds)
  in
  let sorted = Array.copy eligible in
  Array.sort compare sorted;
  let ptr = ref 0 and placed = ref 0 and sum = ref 0 in
  List.iter
    (fun task ->
      let t = start.(task) in
      while !ptr < n && sorted.(!ptr) <= t do incr ptr done;
      sum := !sum + (!ptr - !placed);
      incr placed)
    (List.rev !order);
  fratio !sum (max 1 !placed)

(* The traced run runs each stream [reps] times, each [run_stream]
   followed at once by its replay, and takes the median over these pairs
   of replayed [Free_space] time over [run_stream] time: host load that
   comes and goes then slows both sides of a pair alike, so the ratio
   stays a ratio of the program's own work. Spans are kept for the first
   repetition. *)
let reps = 3

type attribution = {
  reports : On.report array;  (** of the first repetition *)
  times : float array;  (** the first repetition's [run_stream] times *)
  mers : float array;
  frac : float;  (** median replayed [Free_space] share of [run_stream] *)
  f : float;  (** speed factor of the attribution *)
}

(* [first] is the index of [streams.(0)] among the run's streams. *)
let attribute ledger ~spans ~first streams =
  let n = Array.length streams in
  let reports = Array.make n None and mers = ref [] in
  let pairs = ref [] and times = Array.make n 0.0 in
  let speed = Speed.create () in
  Array.iteri
    (fun k tasks ->
      let op = first + k in
      for rep = 0 to reps - 1 do
        let spans = if rep = 0 then spans else Spans.off in
        Speed.tick speed;
        let t0 = now () in
        let r =
          Spans.wrap spans ~name:"online.run_stream" ~op (fun () -> run_stream tasks)
        in
        let dt = now () -. t0 in
        let ms, fs, diverged = replay ~spans op tasks r in
        pairs := ratio fs dt :: !pairs;
        if rep = 0 then begin
          reports.(k) <- Some r;
          times.(k) <- dt;
          mers := ms @ !mers;
          judge ledger
            ~what:(Printf.sprintf "replay of stream %d of seed's streams" op)
            (match diverged with None -> Ok () | Some d -> Error ("replay diverged: " ^ d))
        end
      done)
    streams;
  (* The replay makes a subset of [run_stream]'s calls, so its time can
     exceed [run_stream]'s only by timing noise. *)
  let frac = median (Array.of_list !pairs) in
  judge ledger ~what:"free-space attribution"
    (if frac > 0.0 && frac <= 1.0 +. timing_tolerance then Ok ()
     else
       Error
         (Printf.sprintf "replayed Free_space time is %.3f of run_stream time (pairs: %s)" frac
            (String.concat " " (List.map (Printf.sprintf "%.3f") !pairs))));
  Speed.tick speed;
  {
    reports = Array.map Option.get reports;
    times;
    mers = Array.of_list !mers;
    frac;
    f = Speed.factor speed;
  }

(* [streams] are the attributed ones, the last of the run's streams, so
   that the process has warmed up before the first of them ran;
   [all_tasks] counts the tasks of every stream; [f] is the untraced
   pass's speed factor. *)
let layer_metrics ~(base : pass) ~f ~all_tasks ~spans streams (a : attribution) =
  let aggs = Spans.aggregate spans in
  let placed = Array.fold_left (fun acc (r : On.report) -> acc + r.On.placed) 0 a.reports in
  let deferrals =
    Array.fold_left (fun acc (r : On.report) -> acc + r.On.deferrals) 0 a.reports
  in
  let lat f = mean (Array.map (fun (r : On.report) -> f r.On.latency) a.reports) in
  let k = Array.length streams in
  let base_s = Array.fold_left ( +. ) 0.0 (Array.sub base.times (Array.length base.times - k) k) in
  [
    m "free_space.find_us" "us" (Spans.mean_us aggs "free_space.find");
    m "free_space.place_us" "us" (Spans.mean_us aggs "free_space.place");
    m "free_space.remove_us" "us" (Spans.mean_us aggs "free_space.remove");
    m "free_space.mer_count_mean" "count" (mean a.mers);
    m "free_space.mer_count_max" "count" (Array.fold_left max 0.0 a.mers);
    m "online.free_space_frac" "frac" a.frac;
    m "online.backlog_mean" "count"
      (mean (Array.mapi (fun k s -> backlog s a.reports.(k)) streams));
    m "online.deferral_frac" "frac" (fratio deferrals placed);
    m "online.place_p50_us" "us" (lat (fun l -> l.On.p50_us));
    m "online.place_p99_us" "us" (lat (fun l -> l.On.p99_us));
    m "gc.minor_words_per_op" "words" (base.minor_words /. float_of_int all_tasks);
    m "trace.overhead_frac" "frac"
      (ratio (f *. base_s) (a.f *. Array.fold_left ( +. ) 0.0 a.times));
    m "trace.unattributed_frac" "frac" (1.0 -. a.frac);
  ]

let run ~seed ~traced p =
  let ledger = ledger () in
  let streams, setup_wall, setup_f =
    setup p.setups (fun () -> Inputs.arrival_streams ~seed ~streams:p.streams ~tasks:p.tasks)
  in
  let speed = Speed.create () in
  let base = run_pass ~speed streams in
  let f = Speed.factor speed in
  let utils = check_reports ledger streams base.reports in
  let notes =
    [
      ("streams", string_of_int p.streams);
      ("tasks_per_stream", string_of_int p.tasks);
      ("chip", "32x32");
      ("load", "1.0");
      ("policy", "best");
      ( "latency_samples",
        string_of_int
          (Array.fold_left (fun a (r : On.report) -> a + r.On.latency.On.samples) 0 base.reports) );
      ("setups", string_of_int p.setups);
    ]
    @ speed_notes ~setup_f ~speed (end_to_end ~setup_s:setup_wall ~f:1.0 streams base utils)
  in
  if not traced then
    ( outcome ledger ~notes (end_to_end ~setup_s:(setup_wall *. setup_f) ~f streams base utils),
      Spans.off )
  else begin
    let k = min p.traced_streams p.streams in
    let sub = Array.sub streams (p.streams - k) k in
    let spans = Spans.create () in
    let a = attribute ledger ~spans ~first:(p.streams - k) sub in
    ignore (check_reports ledger ~first:(p.streams - k) sub a.reports);
    let all_tasks = Array.fold_left (fun acc s -> acc + Array.length s) 0 streams in
    ( outcome ledger
        ~notes:(notes @ [ ("traced_streams", string_of_int (Array.length sub)) ])
        (layer_metrics ~base ~f ~all_tasks ~spans sub a),
      spans )
  end
