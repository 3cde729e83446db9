(* Seeded input generators. Everything a workload consumes is built here,
   outside the timed calls, from the workload seed alone: the same seed gives the
   same request stream, instance list and arrival streams, byte for
   byte. *)

module I = Packing.Instance
module T = Packing.Telemetry

let rng seed salt = Random.State.make [| seed; salt; 0x5eed |]

(* A uniformly random permutation of [0 .. n-1]. *)
let shuffle rs n =
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  perm

(* [relabel perm inst]: task [k] of the result is task [perm.(k)] of
   [inst]; labels and order arcs travel with the tasks. *)
let relabel perm inst =
  let n = I.count inst in
  let pos = Array.make n 0 in
  Array.iteri (fun k o -> pos.(o) <- k) perm;
  I.make ~name:(I.name inst)
    ~labels:(Array.init n (fun k -> I.label inst perm.(k)))
    ~precedence:
      (List.map
         (fun (u, v) -> (pos.(u), pos.(v)))
         (Order.Partial_order.relations (I.precedence inst)))
    ~boxes:(Array.init n (fun k -> I.box inst perm.(k)))
    ()

(* ------------------------------------------------------------------ *)
(* serve-mixed: a request stream                                       *)
(* ------------------------------------------------------------------ *)

type op = Solve | Min_time | Min_area

let op_name = function
  | Solve -> "solve"
  | Min_time -> "min-time"
  | Min_area -> "min-area"

(* The question a request asks, independent of task labels. *)
type query = {
  op : op;
  chip : int * int;  (** chip for solve/min-time *)
  time : int;  (** time budget for solve/min-area *)
}

type request = {
  id : int;
  cls : int;  (** isomorphism class: popular class index, or -1 - id for a unique one *)
  query : query;
  base : I.t;  (** the class representative (shared by the class) *)
  perm : int array option;  (** the request's relabeling of [base], if any *)
  line : string;  (** the JSONL request line *)
}

(* The instance in the request's own labels. Requests keep only the
   permutation, so a long stream of large instances stays small. *)
let instance r = match r.perm with None -> r.base | Some p -> relabel p r.base

let serve_node_limit = 4000
let serve_chip = (12, 12)

(* One random instance and the query asked of it. Solve asks for a
   time budget of twice the critical path, min-area for the critical
   path plus half of it; min-time on a 12x12 chip. *)
let serve_query ~op inst =
  let cp = I.critical_path inst in
  match op with
  | Solve -> { op; chip = serve_chip; time = 2 * cp }
  | Min_time -> { op; chip = serve_chip; time = 0 }
  | Min_area -> { op; chip = (0, 0); time = cp + (cp / 2) + 1 }

let instance_text inst =
  Fpga.Instance_io.print
    { Fpga.Instance_io.instance = inst; chip = None; t_max = None; container = None }

let request_of_text ~id q text =
  let w, h = q.chip in
  T.to_string
    (T.Obj
       ([
          ("id", T.String (Printf.sprintf "r%d" id));
          ("op", T.String (op_name q.op));
          ("instance", T.String text);
          ("node_limit", T.Int serve_node_limit);
        ]
       @ (match q.op with
         | Solve | Min_time -> [ ("chip", T.List [ T.Int w; T.Int h ]) ]
         | Min_area -> [])
       @ match q.op with Solve | Min_area -> [ ("time", T.Int q.time) ] | Min_time -> []))

let request_line ~id q inst = request_of_text ~id q (instance_text inst)

(* An instance's printed text cut into its lines: task line [k] is task
   [k], and the dependency lines name tasks by label. Printing the task
   lines in the order [perm] prints [relabel perm inst], at a fraction of
   the cost of building and printing it. *)
type printed = { head : string list; tasks : string array; deps : string array }

let split_text inst =
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' (instance_text inst)) in
  let starts prefix l = String.starts_with ~prefix l in
  let tasks = Array.of_list (List.filter (starts "task ") lines) in
  assert (Array.length tasks = I.count inst);
  {
    head = List.filter (fun l -> not (starts "task " l || starts "dep " l)) lines;
    tasks;
    deps = Array.of_list (List.filter (starts "dep ") lines);
  }

let relabeled_text rs pr perm =
  let deps = Array.map (fun i -> pr.deps.(i)) (shuffle rs (Array.length pr.deps)) in
  String.concat "\n"
    (pr.head @ Array.to_list (Array.map (fun k -> pr.tasks.(k)) perm) @ Array.to_list deps)
  ^ "\n"

let random_instance ~seed ~n =
  Benchmarks.Generate.random ~seed ~n ~max_extent:5 ~max_duration:4
    ~arc_probability:(2.0 /. float_of_int n) ()

let all_ops = [| Solve; Min_time; Min_area |]

(* Candidate popular classes: [per_cell] instances for each size in
   [sizes] and each op. The popular set is a fixed catalog, the same for
   every seed; the seed decides which class each request asks for, its
   labeling, and the unique instances. Warm-up may drop candidates whose
   answer is not definitive (and so never cached). *)
let catalog_seed = 20011

let popular_candidates ~sizes ~per_cell =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun op ->
          List.init per_cell (fun k ->
              let inst = random_instance ~seed:((catalog_seed * 7919) + (n * 101) + k) ~n in
              (serve_query ~op inst, inst)))
        (Array.to_list all_ops))
    sizes

type stream_params = {
  requests : int;
  miss_frac : float;
  miss_sizes : int * int;  (** unique instances draw n uniformly in this range *)
}

(* The request stream: each request is, with probability [miss_frac], a
   unique instance (a cache miss), otherwise a fresh relabeling of a
   popular class (an isomorphic cache hit): a popular size drawn
   uniformly, then a class of that size uniformly. The stream is made in
   order, on demand: each call of the returned function gives the next
   [k] requests, fewer at the end of the stream. Made in chunks, the
   inputs never fill the heap the program's own heap is measured on. *)
let serve_stream ~seed p (popular : (query * I.t) array) =
  let rs = rng seed 1 in
  let texts = Array.map (fun (_, inst) -> split_text inst) popular in
  let groups =
    List.map
      (fun n ->
        Array.of_list
          (List.filter
             (fun c -> I.count (snd popular.(c)) = n)
             (List.init (Array.length popular) Fun.id)))
      (List.sort_uniq compare (Array.to_list (Array.map (fun (_, i) -> I.count i) popular)))
    |> Array.of_list
  in
  let draw_class () =
    let cs = groups.(Random.State.int rs (Array.length groups)) in
    cs.(Random.State.int rs (Array.length cs))
  in
  let lo, hi = p.miss_sizes in
  let make id =
    if groups = [||] || Random.State.float rs 1.0 < p.miss_frac then begin
      let n = lo + Random.State.int rs (hi - lo + 1) in
      let op = all_ops.(Random.State.int rs 3) in
      let inst =
        random_instance ~seed:(1_000_000 + (seed * 100_003) + id) ~n
      in
      let q = serve_query ~op inst in
      { id; cls = -1 - id; query = q; base = inst; perm = None; line = request_line ~id q inst }
    end
    else begin
      let cls = draw_class () in
      let q, base = popular.(cls) in
      let perm = shuffle rs (I.count base) in
      let line = request_of_text ~id q (relabeled_text rs texts.(cls) perm) in
      { id; cls; query = q; base; perm = Some perm; line }
    end
  in
  let made = ref 0 in
  fun k ->
    let first = !made in
    made := min p.requests (first + k);
    Array.init (!made - first) (fun i -> make (first + i))

(* ------------------------------------------------------------------ *)
(* optimize-*: an instance list                                        *)
(* ------------------------------------------------------------------ *)

type opt_case = {
  name : string;
  inst : I.t;
  goal : [ `Min_time of int * int | `Min_area of int ];
  expect : int option;  (** the paper's optimum, for its own cases *)
}

(* The paper's cases: DE Table 1 (min-area at T = 6, 13, 14) and the
   codec's Table 2 point, asked both ways. *)
let paper_cases () =
  List.map
    (fun (t, h) ->
      {
        name = Printf.sprintf "DE T=%d" t;
        inst = Benchmarks.De.instance;
        goal = `Min_area t;
        expect = Some h;
      })
    Benchmarks.De.table1
  @
  let h, t = Benchmarks.Video_codec.table2 in
  [
    {
      name = Printf.sprintf "codec T=%d" t;
      inst = Benchmarks.Video_codec.instance;
      goal = `Min_area t;
      expect = Some h;
    };
    {
      name = Printf.sprintf "codec %dx%d" h h;
      inst = Benchmarks.Video_codec.instance;
      goal = `Min_time (h, h);
      expect = Some t;
    };
  ]

(* [count] random draws with n in 10..12, alternating min-time on an
   8x8 chip and min-area at 1.5x the critical path. *)
let random_cases ~seed ~count =
  let rs = rng seed 2 in
  List.init count (fun k ->
      let n = 10 + Random.State.int rs 3 in
      let s = Random.State.bits rs in
      let inst =
        Benchmarks.Generate.random ~seed:s ~n ~max_extent:5 ~max_duration:4
          ~arc_probability:0.15 ()
      in
      let goal =
        if k mod 2 = 0 then `Min_time (8, 8)
        else
          let cp = I.critical_path inst in
          `Min_area (cp + (cp / 2))
      in
      { name = Printf.sprintf "rnd%d seed=%d n=%d" k s n; inst; goal; expect = None })

let opt_cases ~seed ~count = paper_cases () @ random_cases ~seed ~count

(* ------------------------------------------------------------------ *)
(* online-stream: arrival streams                                      *)
(* ------------------------------------------------------------------ *)

let online_chip = Fpga.Chip.square 32

(* [streams] arrival streams of [tasks] tasks each at offered load 1.0
   with the CLI's generator defaults. *)
let arrival_streams ~seed ~streams ~tasks =
  Array.init streams (fun k ->
      Benchmarks.Generate.arrival_stream
        ~seed:((seed * 1009) + k)
        ~n:tasks ~chip:online_chip ~load:1.0 ~max_extent:8 ~max_duration:12
        ~arc_probability:0.1 ())

(* A stable text form of a stream, for determinism tests. *)
let stream_text (s : Fpga.Online.task array) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (t : Fpga.Online.task) ->
      Printf.bprintf b "%d %d %d %d [%s]\n" t.w t.h t.duration t.arrival
        (String.concat " " (List.map string_of_int t.preds)))
    s;
  Buffer.contents b

let case_text c =
  instance_text c.inst
  ^
  match c.goal with
  | `Min_time (w, h) -> Printf.sprintf "min-time %dx%d\n" w h
  | `Min_area t -> Printf.sprintf "min-area %d\n" t
