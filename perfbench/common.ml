(* Shared plumbing of the benchmark: clocks, percentiles, metric records,
   GC readings and the in-memory span recorder used by traced runs. *)

module T = Packing.Telemetry

let now = Unix.gettimeofday

(* Nearest-rank percentile, [p] in [0,1]; 0.0 on no samples. *)
let percentile xs p = T.percentile xs ~p
let median xs = percentile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* How far a ratio of two timings of the same work, taken back to back,
   may stray from its true value before a check calls it wrong. On a
   shared host the fastest of three back-to-back repetitions of a
   0.3-second call still differs between repetitions by up to 5%. *)
let timing_tolerance = 0.1

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

(* What one workload run hands back to [Bench]. *)
type result = {
  attempted : int;
  failed : int;
  failures : string list;  (** first few failed checks, with their inputs *)
  metrics : metric list;
      (** end-to-end metrics (untraced) or per-layer metrics (traced) *)
  notes : (string * string) list;
      (** workload parameters and sample counts for the header *)
}

(* Failure ledger: every check that fails is counted and the first few
   are kept verbatim so a non-zero [failed] always comes with inputs. *)
type ledger = {
  mutable attempted : int;
  mutable failed : int;
  mutable kept : string list;
}

let ledger () = { attempted = 0; failed = 0; kept = [] }

(* Count one operation and, when its check failed, the failure. *)
let judge l ~what check =
  l.attempted <- l.attempted + 1;
  match check with
  | Ok () -> ()
  | Error msg ->
    l.failed <- l.failed + 1;
    if List.length l.kept < 10 then l.kept <- (what ^ ": " ^ msg) :: l.kept

let outcome l ~notes metrics =
  { attempted = l.attempted; failed = l.failed; failures = l.kept; metrics; notes }

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* On a shared host the speed of a vCPU drifts, by up to 1.9 times
   between minutes, with no steal time to show for it: the other tenants
   share its core and caches. Every end-to-end time is therefore measured
   against a fixed reference kernel run in the same process, between the
   timed operations: a time is reported as its wall time scaled by
   [nominal_s] over the median time of the kernel in the same phase of
   the run. [nominal_s] only sets the unit (the kernel's own time at
   the host's usual speed); any comparison of two commits divides it
   out. The kernel allocates nothing, so neither the program's heap nor
   its GC settings change what it measures. *)
module Speed = struct
  let nominal_s = 5e-4

  (* Time share the kernel may take from a timed phase, and how often a
     phase samples it. *)
  let share = 0.03
  let interval_s = 0.05

  (* Pointer chasing around one 128 KB cycle, a sort and an
     open-addressing hash fill: memory, branches and arithmetic, like
     the program. Its data fit in a core's L2 cache. *)
  let kernel =
    let n = 1 lsl 14 in
    let st = ref 12345 in
    let next () =
      st := ((!st * 1103515245) + 12345) land 0x3fffffff;
      !st
    in
    (* Sattolo's shuffle: one cycle through every slot. *)
    let perm = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = next () mod i in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    let src = Array.init 1024 (fun _ -> next ()) in
    let work = Array.make 1024 0 and table = Array.make 2048 0 in
    fun () ->
      let p = ref 0 and s = ref 0 in
      for _ = 1 to 2 * n do
        p := perm.(!p);
        s := !s + !p
      done;
      Array.blit src 0 work 0 1024;
      Array.sort Int.compare work;
      Array.fill table 0 2048 0;
      for i = 0 to 1023 do
        let h = ref ((work.(i) * 0x9E3779B1) land 2047) in
        while table.(!h) <> 0 do
          h := (!h + 1) land 2047
        done;
        table.(!h) <- work.(i) lor 1
      done;
      !s + table.(17)

  type t = { mutable samples : float list; mutable last : float }

  (* [k] timed runs of the kernel after an untimed one, which brings its
     data back into the cache: the timed runs measure the core's speed,
     not what the program left in the cache. *)
  let burst t k =
    ignore (Sys.opaque_identity (kernel ()));
    for _ = 1 to k do
      let t0 = now () in
      ignore (Sys.opaque_identity (kernel ()));
      let t1 = now () in
      t.samples <- (t1 -. t0) :: t.samples;
      t.last <- t1
    done

  (* A phase's sampler, with a first burst of samples, so that even a
     phase too short to tick has a factor. *)
  let create () =
    let t = { samples = []; last = now () } in
    burst t 8;
    t

  (* Called between timed operations. Once [interval_s] has passed it
     runs the kernel for about [share] of the time since the last
     sample, so the samples spread evenly over the phase's time however
     long its operations are. *)
  let tick t =
    let el = now () -. t.last in
    if el >= interval_s then
      burst t (max 1 (min 64 (int_of_float (Float.round (el *. share /. nominal_s)))))

  let count t = List.length t.samples

  (* Multiply a wall time of this phase by it to get reference time. *)
  let factor t = nominal_s /. median (Array.of_list t.samples)
end

(* [setup n f] runs [f] [n] times, each after a full major collection,
   and returns the last result, the median wall time of the runs and the
   speed factor measured around them. *)
let setup n f =
  let times = Array.make n 0.0 and last = ref None in
  let speed = Speed.create () in
  for k = 0 to n - 1 do
    last := None;
    Gc.full_major ();
    if k > 0 then Speed.burst speed 8;
    let t0 = now () in
    last := Some (f ());
    times.(k) <- now () -. t0
  done;
  Speed.burst speed 8;
  (Option.get !last, median times, Speed.factor speed)

(* Header entries that show the speed factors and the wall-clock values
   behind the reported reference times. [wall] are the end-to-end
   metrics computed with factors of 1. *)
let speed_notes ~setup_f ~speed wall =
  [
    ("speed_factor", Printf.sprintf "%.4f" (Speed.factor speed));
    ("speed_samples", string_of_int (Speed.count speed));
    ("setup_speed_factor", Printf.sprintf "%.4f" setup_f);
  ]
  @ List.filter_map
      (fun x ->
        if List.mem x.unit [ "s"; "ms"; "1/s" ] then
          Some ("wall." ^ x.name, Printf.sprintf "%.6g" x.value)
        else None)
      wall

let minor_words () = Gc.minor_words ()

let heap_peak_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* A span is one timed call from the benchmark into a layer: its name,
   interval, the span that was open when it started, and the operation
   (request, optimization, stream) it belongs to. Spans live in memory
   and are written out once, when the run ends. *)
type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  op : int;
  t0 : float;
  t1 : float;
}

module Spans = struct
  type t = {
    on : bool;
    mutable spans : span list;  (** newest first *)
    mutable next : int;
    mutable stack : int list;
  }

  let off = { on = false; spans = []; next = 0; stack = [] }
  let create () = { on = true; spans = []; next = 0; stack = [] }
  let enabled t = t.on

  let add t ~name ~op ~t0 ~t1 =
    if t.on then begin
      let parent = match t.stack with p :: _ -> p | [] -> -1 in
      t.spans <- { id = t.next; name; parent; op; t0; t1 } :: t.spans;
      t.next <- t.next + 1
    end

  (* [wrap t ~name ~op f] times [f ()] as one span; spans opened inside
     it become its children. Off recorders call [f] and nothing else. *)
  let wrap t ~name ~op f =
    if not t.on then f ()
    else begin
      let id = t.next in
      t.next <- id + 1;
      let parent = match t.stack with p :: _ -> p | [] -> -1 in
      t.stack <- id :: t.stack;
      let t0 = now () in
      let finish () =
        let t1 = now () in
        t.stack <- List.tl t.stack;
        t.spans <- { id; name; parent; op; t0; t1 } :: t.spans
      in
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end

  type agg = { count : int; total_s : float; self_s : float }

  (* Per-name count, total and self time. Self time is a span's duration
     minus the durations of its direct children. *)
  let aggregate t =
    let child_s = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child_s s.parent
            (s.t1 -. s.t0
            +. Option.value (Hashtbl.find_opt child_s s.parent) ~default:0.0))
      t.spans;
    let by_name = Hashtbl.create 64 in
    List.iter
      (fun s ->
        let d = s.t1 -. s.t0 in
        let self = d -. Option.value (Hashtbl.find_opt child_s s.id) ~default:0.0 in
        let a =
          Option.value (Hashtbl.find_opt by_name s.name)
            ~default:{ count = 0; total_s = 0.0; self_s = 0.0 }
        in
        Hashtbl.replace by_name s.name
          { count = a.count + 1; total_s = a.total_s +. d; self_s = a.self_s +. self })
      t.spans;
    by_name

  let get aggs name =
    Option.value (Hashtbl.find_opt aggs name)
      ~default:{ count = 0; total_s = 0.0; self_s = 0.0 }

  (* Mean duration of the spans called [name], in microseconds. *)
  let mean_us aggs name =
    let a = get aggs name in
    if a.count = 0 then 0.0 else a.total_s *. 1e6 /. float_of_int a.count

  let write t path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start\":%.6f,\"end\":%.6f}\n"
          s.id s.name s.parent s.op s.t0 s.t1)
      (List.rev t.spans);
    close_out oc

  (* Self-time table, one line per span name, heaviest first. *)
  let pp_self ppf aggs =
    let rows = Hashtbl.fold (fun k a acc -> (k, a) :: acc) aggs [] in
    let rows = List.sort (fun (_, a) (_, b) -> compare b.self_s a.self_s) rows in
    List.iter
      (fun (k, a) ->
        Format.fprintf ppf "#   %-36s n=%-7d total %9.3f s  self %9.3f s@." k
          a.count a.total_s a.self_s)
      rows
end
