(** Sparse paged physical backing for the 64-bit virtual address space.

    Pages are allocated lazily and zero-filled, which conveniently gives
    the taint bitmap (region 0) an all-clear initial state.  Validity of
    addresses (canonicality, null guard) is the machine's concern; this
    module only moves bytes. *)

type t

val fast_path : bool ref
(** When true (the default), reads and writes use the word-width page
    fast path and the software TLB; when false, every access walks the
    original byte-at-a-time reference path.  The two are observationally
    identical — the flag exists so differential tests and the
    [throughput] bench experiment can run the reference implementation
    on demand.  Not a tuning knob: leave it on. *)

val create : unit -> t

val page_size : int

val watch : t -> lo:int64 -> hi:int64 -> (int64 -> int -> unit) -> unit
(** Register a store observer for the address range [\[lo, hi)].  Every
    top-level write whose range intersects a watched range calls each
    observer with the written address and length, at least once —
    observers must be idempotent, because byte-walk fallbacks may
    re-notify per byte.  Reads never notify.  The superblock compiler
    uses this to invalidate compiled blocks on stores into the code
    region; when no watcher is registered the cost is one list check
    per write.
    @raise Invalid_argument if a bound is not a canonical address. *)

val read_u8 : t -> int64 -> int
val write_u8 : t -> int64 -> int -> unit

val read : t -> int64 -> width:int -> int64
(** Little-endian read of [width] bytes (1, 2, 4 or 8), zero-extended. *)

val write : t -> int64 -> width:int -> int64 -> unit
(** Little-endian write of the low [width] bytes of the value. *)

val load : t -> int -> width:int -> Bytes.t -> int -> unit
(** [load t pa ~width dst pos] is {!read} at the packed address [pa]
    (see {!Addr.pack}) into the little-endian 8-byte slot of [dst] at
    [pos]: the instruction engines' load path, which never boxes the
    value. *)

val store : t -> int -> width:int -> Bytes.t -> int -> unit
(** [store t pa ~width src pos] is {!write} at the packed address [pa]
    of the low [width] bytes of the 8-byte slot of [src] at [pos]. *)

val read_ref : t -> int64 -> width:int -> int64
val write_ref : t -> int64 -> width:int -> int64 -> unit
(** The byte-at-a-time reference implementations of {!read} and
    {!write}.  [read]/[write] must agree with them on every access;
    differential tests call both sides directly. *)

val read_bytes : t -> int64 -> len:int -> string
val write_bytes : t -> int64 -> string -> unit

val read_cstring : ?max:int -> t -> int64 -> string
(** Read a NUL-terminated string (at most [max] bytes, default 65536;
    truncated if no NUL is found). *)

val write_cstring : t -> int64 -> string -> unit
(** Write the string followed by a NUL byte. *)

val allocated_pages : t -> int
(** Number of pages touched so far (for tests and reporting). *)

val clone : t -> t
(** Deep copy: a fresh memory whose pages hold the same bytes but never
    alias the original (fork's address-space copy).  The clone has a
    cold TLB and no watchers. *)

(** {1 Page iteration (checkpoint/restore)} *)

val fold_pages : t -> init:'a -> f:('a -> int64 -> bytes -> 'a) -> 'a
(** Fold over the allocated pages in ascending page-key order (the key
    is the address shifted right by log2 page size).  All-zero pages
    are skipped — a never-allocated page reads as zeros, so eliding
    them is invisible to {!read}.  The [bytes] is the live backing
    store: do not mutate it. *)

val load_page : t -> int64 -> string -> unit
(** [load_page t key data] installs [data] (exactly {!page_size} bytes)
    as the page with the given key, allocating it if needed.
    @raise Invalid_argument on a size mismatch. *)
