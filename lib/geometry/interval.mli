(** Half-open integer intervals [[lo, lo + len)].

    All coordinates in this library are integers: FPGA cells and clock
    cycles are inherently discrete, and the packing-class theory is
    stated for integral boxes. *)

type t = private { lo : int; len : int }

(** [make ~lo ~len] is the interval [[lo, lo + len)].
    @raise Invalid_argument if [len <= 0]. *)
val make : lo:int -> len:int -> t

(** Exclusive upper end, [lo + len]. *)
val hi : t -> int

(** [overlaps a b] is [true] iff the half-open intervals intersect. *)
val overlaps : t -> t -> bool

(** [disjoint a b] is [not (overlaps a b)]. *)
val disjoint : t -> t -> bool

(** [contains a x] is [true] iff [lo <= x < hi]. *)
val contains : t -> int -> bool

(** [within a ~bound] is [true] iff [0 <= lo] and [lo + len <= bound],
    decided without overflow: an interval whose end lies past [max_int]
    is never within. *)
val within : t -> bound:int -> bool

(** [precedes a b] is [true] iff [a] ends no later than [b] starts. *)
val precedes : t -> t -> bool

(** [intersection a b] is the common part, if any. *)
val intersection : t -> t -> t option

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
