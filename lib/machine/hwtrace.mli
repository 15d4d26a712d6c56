(** The hardware observation trace for the side-channel detector.

    Records, per architecturally executed guest load/store, the L1D
    cache-set index the access mapped to and the hit/miss bit — the
    "hardware trace" of a speculation contract.  Emitted identically
    from the interpreter and the superblock closures, so the trace is a
    property of the guest execution, not of the engine that ran it. *)

type entry = {
  e_pc : int;  (** guest pc of the load/store *)
  e_set : int;  (** cache-set index the address mapped to *)
  e_hit : bool;
  e_store : bool;
  e_prov : int;
      (** Flowtrace id of the address register at access time; 0 when the
          address was clean (or flow tracing was off) *)
}

(** A trace buffer: three parallel [int] arrays whose first [len] slots
    are live.  Recording stores plain [int]s, never an [entry] record,
    so a live trace allocates only when its buffer grows. *)
type t = {
  mutable enabled : bool;
  mutable pcs : int array;
  mutable sets : int array;
  mutable flags : int array;
      (** [e_prov lsl 2 lor e_store lsl 1 lor e_hit], bits as 0/1 *)
  mutable len : int;
  mutable dropped : int;  (** entries past [limit], counted not stored *)
  limit : int;
}

val disabled : unit -> t
(** The default on every CPU: recording off, zero cost beyond one
    boolean test per cache access. *)

val create : ?limit:int -> unit -> t
(** A live trace.  Past [limit] entries (default 2^20) recording stops
    and [dropped] counts the overflow, keeping memory bounded on long
    runs. *)

val record :
  t -> pc:int -> set:int -> hit:bool -> store:bool -> prov:int -> unit

val length : t -> int
val dropped : t -> int
val get : t -> int -> entry
(** The [i]th recorded entry, built on demand.
    @raise Invalid_argument unless [0 <= i < length t]. *)

val entries : t -> entry array
(** All recorded entries, oldest first. *)

val clear : t -> unit
(** Forget recorded entries (keeps [enabled] as is). *)
