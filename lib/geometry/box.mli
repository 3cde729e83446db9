(** Axis-aligned boxes of arbitrary dimension.

    A hardware module is a 3-dimensional box: extents along [x] and [y]
    are cell counts on the chip, the extent along the last (time) axis
    is the execution duration in clock cycles. The packing machinery is
    written for arbitrary dimension [d >= 1], which both matches the
    underlying theory and lets the 2D "fixed schedule" problems reuse
    the same code paths. *)

type t

(** [make extents] is a box with the given positive extents; dimension
    is [Array.length extents].
    @raise Invalid_argument if empty or any extent is non-positive. *)
val make : int array -> t

(** [make3 ~w ~h ~duration] is a convenience for space-time boxes with
    dimension order [x; y; t]. *)
val make3 : w:int -> h:int -> duration:int -> t

(** Number of dimensions. *)
val dim : t -> int

(** [extent b k] is the size of [b] along axis [k]. *)
val extent : t -> int -> int

(** All extents, as a fresh array. *)
val extents : t -> int array

(** Product of all extents, saturating at [max_int]
    ({!Saturating}). *)
val volume : t -> int

(** [rotate b ~axes] permutes the extents; [axes] must be a permutation
    of [0 .. dim-1]. *)
val rotate : t -> axes:int array -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
