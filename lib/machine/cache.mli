(** A small direct-mapped L1 data cache model.

    Only load latency depends on it (stores are assumed write-buffered
    but allocate their line).  Its role in the reproduction: the
    byte-level taint bitmap has 8x the footprint of the word-level one
    (one bit per byte vs. one bit per 8-byte word), so byte-level
    tracking suffers more bitmap misses — one of the reasons byte-level
    SHIFT is slower in the paper's Figure 7. *)

type t

val create : ?size_kb:int -> ?line_bytes:int -> unit -> t
(** Defaults: 16 KB, 64-byte lines (Itanium-2-like L1D).

    @raise Invalid_argument on degenerate geometry: zero or negative
    sizes, a non-power-of-two [line_bytes] (which would silently
    misattribute addresses to lines), [line_bytes] below 8 (a line
    smaller than a word; it also keeps every line address an exact
    [int]), or [line_bytes] larger than the
    whole cache (which would leave zero sets and defer a
    [Division_by_zero] to the first access). *)

val access : t -> int -> bool
(** Look up the line containing the packed address (see
    {!Shift_mem.Addr.pack}) and allocate it; [true] on hit.  Takes an
    [int] so the call never boxes the address. *)

val set_of : t -> int -> int
(** The set index the packed address maps to — what a cache-set side channel
    observes.  Pure: does not touch the resident lines or counters. *)

val hits : t -> int
val misses : t -> int

val miss_penalty : int
(** Extra load-use latency on a miss (cycles). *)

(** {1 Checkpoint/restore}

    The resident line per set plus the hit/miss counters, as plain
    data (line addresses widened to [int64] at this boundary, so the
    snapshot format does not depend on the in-memory representation).
    Restoring reproduces the exact hit/miss sequence — and so
    the exact load latencies — of the unbroken run. *)

type snap = {
  s_lines : int64 array;
  s_hits : int;
  s_misses : int;
  s_line_shift : int;  (** log2 of the line size the snap was taken under *)
}

val export : t -> snap

val import : t -> snap -> unit
(** @raise Invalid_argument if the set counts or line sizes differ, or
    a line address is out of range (the
    restored cache must be created with the same geometry — a snap taken
    under different [line_bytes] would silently diverge the hit/miss
    sequence after restore). *)
