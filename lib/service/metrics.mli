(** Metrics formats: snapshot types, Prometheus text and JSON
    exposition (both directions), a human table, bucket ladders and a
    fixed-bucket histogram accumulator.

    This module keeps no registry and mints no handles. A snapshot is
    built when it is read, by the code that already owns the counts:
    {!Server.metrics} assembles one from the result cache, its request
    accounting and the solver reports of the requests it answered.
    Nothing on the solving path knows this module exists. *)

(** {1 Snapshots}

    A snapshot is plain immutable data: families sorted by name, series
    sorted by their canonical label encoding, histogram buckets already
    cumulative. Rendering a given snapshot is byte-deterministic. *)

type kind = Counter | Gauge | Histogram

type value =
  | Sample of float  (** counter or gauge level *)
  | Buckets of {
      le : float array;  (** upper bounds, ending in [infinity] *)
      cumulative : int array;  (** same length; last equals [count] *)
      sum : float;
      count : int;
    }

type sample = { labels : (string * string) list; value : value }
type family = { name : string; kind : kind; help : string; samples : sample list }
type snapshot = family list

(** {1 Histogram accumulator}

    Observations land in fixed buckets: the ladder is the array of
    upper bounds ([le]), strictly increasing and finite; an implicit
    [+Inf] bucket is always appended. Not synchronized: the owner
    serializes {!observe} and {!buckets} (the server does so under its
    request-accounting lock). *)

type histogram

val histogram : float array -> histogram
val observe : histogram -> float -> unit

(** The accumulated observations as a cumulative {!Buckets} value. *)
val buckets : histogram -> value

(** {1 Bucket ladders} *)

(** [log_buckets ~lo ~ratio ~count] is [lo * ratio^i] for [i] in
    [0 .. count-1].
    @raise Invalid_argument unless [lo > 0], [ratio > 1], [count >= 1]. *)
val log_buckets : lo:float -> ratio:float -> count:int -> float array

(** 10 microseconds to ~84 seconds, factor 2 (24 buckets). *)
val latency_buckets : float array

(** 1 to ~4.2M search nodes, factor 4 (12 buckets). *)
val node_buckets : float array

(** {1 Rendering and parsing} *)

(** Prometheus text exposition: [# HELP]/[# TYPE] lines, one sample
    per line, histogram [_bucket{le=...}] samples cumulative and ending
    in [+Inf], then [_sum] and [_count]. *)
val to_prometheus : snapshot -> string

(** JSON form (for the [metrics] request op and snapshot files):
    [{"families":[...]}]. *)
val to_json : snapshot -> Packing.Telemetry.json

val of_json : Packing.Telemetry.json -> (snapshot, string) result

(** Parse an exposition back into a snapshot. Strict: every sample
    must be preceded by a matching [# TYPE] line, histogram bucket
    counts must be non-decreasing and end in [+Inf] — so this doubles
    as the well-formedness check used by the tests and CI. *)
val of_prometheus : string -> (snapshot, string) result

(** Human-readable table (the [metrics-summary] CLI rendering):
    histograms show count, sum, and bucket-resolution p50/p99. *)
val pp_table : Format.formatter -> snapshot -> unit
