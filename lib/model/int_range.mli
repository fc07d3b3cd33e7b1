(** Ranges of admissible resource counts.

    The service model's [nActive] attribute constrains the number of
    active resources: e.g. [[1-1000,+1]] (any count), [[1]] (exactly
    one), or [[1-1024,*2]] (powers of two — the paper's example of a
    scientific code that requires 2^k nodes). *)

type t =
  | Singleton of int
  | Arithmetic of { lo : int; hi : int; step : int }
  | Geometric of { lo : int; hi : int; factor : int }
  | Explicit of int list

val singleton : int -> t
val arithmetic : lo:int -> hi:int -> step:int -> t
(** Raises [Invalid_argument] unless [0 <= lo <= hi] and [step > 0]. *)

val geometric : lo:int -> hi:int -> factor:int -> t
(** Raises [Invalid_argument] unless [1 <= lo <= hi] and [factor > 1]. *)

val explicit : int list -> t
(** Raises [Invalid_argument] on an empty list or negative members. *)

val to_list : t -> int list
(** All members in increasing order, without duplicates. *)

val mem : t -> int -> bool
val min_value : t -> int
val max_value : t -> int
(** [mem], [min_value], [max_value] and {!next_above} are computed from
    the range's shape; none of them builds the member list. *)

val next_above : t -> int -> int option
(** [next_above t n] is the smallest member [>= n], if any. *)

val find_first : t -> (int -> bool) -> int option
(** [find_first t p] is the smallest member satisfying [p]. Members are
    visited in increasing order and the walk stops at the first hit. *)

val members : t -> lo:int -> hi:int -> int list
(** The members within [[lo, hi]], in increasing order, visiting only
    those members (plus the walk to [lo] of a geometric range). *)

val of_string : string -> t
(** Parses [[1]], [[1-1000,+1]], [[2-1024,*2]], or [[1,2,5]].
    Raises [Invalid_argument] on malformed input. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
