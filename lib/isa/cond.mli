(** Comparison conditions for [cmp] instructions. *)

type t =
  | Eq   (** equal *)
  | Ne   (** not equal *)
  | Lt   (** signed less-than *)
  | Le   (** signed less-or-equal *)
  | Gt   (** signed greater-than *)
  | Ge   (** signed greater-or-equal *)
  | Ltu  (** unsigned less-than *)
  | Leu  (** unsigned less-or-equal *)
  | Gtu  (** unsigned greater-than *)
  | Geu  (** unsigned greater-or-equal *)

val eval : t -> int64 -> int64 -> bool
(** [eval c a b] evaluates [a c b]. *)

val holds : t -> signed:int -> unsigned:int -> bool
(** [holds c ~signed ~unsigned] is [eval c a b] given
    [signed = Int64.compare a b] and
    [unsigned = Int64.unsigned_compare a b]. *)

val negate : t -> t
(** The condition with the opposite truth value. *)

val swap : t -> t
(** The condition [c'] such that [a c b = b c' a]. *)

val all : t list

val pp : Format.formatter -> t -> unit
val to_string : t -> string
