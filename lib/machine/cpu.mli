(** The CPU simulator: functional semantics plus pipeline timing.

    Implements the deferred-exception lifecycle SHIFT builds on
    (paper §2.2):

    - every general register carries a NaT bit;
    - NaT bits propagate OR-wise through computation;
    - a speculative load from an invalid address sets the target's NaT
      bit instead of faulting;
    - [chk.s] redirects to recovery code when it meets a NaT bit;
    - consuming a NaT bit in a memory address, a stored value (non-spill)
      or a control-transfer target raises a NaT-consumption fault — the
      hardware half of policies L1-L3;
    - [st.spill]/[ld.fill] round-trip the NaT bit through UNAT, and UNAT
      is preserved across calls (as the Itanium ABI does);
    - compares with a NaT source clear both target predicates unless the
      compare is the §6.3 taint-aware variant. *)

type t = {
  program : Shift_isa.Program.t;
  decoded : Decode.t;  (** per-instruction fast-path records, see {!Decode} *)
  mem : Shift_mem.Memory.t;
  values : Bytes.t;
      (** The register file: [Reg.count] little-endian 64-bit values,
          register [r] at byte [8 * r].  Bytes rather than an [int64
          array] so a register write stores the value in place instead
          of boxing it.  Read and write through {!get_value}/{!set_value}
          (which keep r0 at zero) outside the engines. *)
  nats : bool array;  (** NaT bit per register *)
  preds : bool array;  (** predicate registers; p0 is always true *)
  unat : Bytes.t;
      (** The UNAT register (spill/fill NaT bits), 8 little-endian bytes
          so the spill path updates it without boxing; see
          {!get_unat}/{!set_unat}. *)
  mutable ip : int;
  stats : Stats.t;
  pipe : Pipeline.t;
  cache : Cache.t;
  mutable syscall_handler : (t -> unit) option;
  mutable trace : (t -> int -> Shift_isa.Instr.t -> unit) option;
      (** Raw per-instruction callback, fired before every instruction
          (including predicated-off ones).  Kept for back-compat and
          ad-hoc debugging; for structured taint-flow observation prefer
          {!Flowtrace} via the {!field-flowtrace} field — it survives
          suspension, costs one branch when disabled, and produces
          machine-readable events. *)
  mutable flowtrace : Flowtrace.t;
      (** Taint-provenance trace; {!Flowtrace.disabled} by default. *)
  ftregs : Flowtrace.regs;  (** this hart's register provenance shadow *)
  mutable hwtrace : Hwtrace.t;
      (** Cache-set observation trace; {!Hwtrace.disabled} by default.
          When live, every guest load/store that touches the cache
          model appends an entry, through one gateway shared by both
          execution engines. *)
  call_stack : call_stack;
      (** Return frames pushed by calls; see {!call_frames} and
          {!set_call_frames}. *)
  sb : sb;  (** superblock compiler state; a derived cache, never snapshotted *)
  mutable tracking : Shift_tracking.Tracking.t;
      (** Taint-tracking backend handle ({!Shift_tracking.Tracking.default}
          — an inert [nat] handle — until a session installs its own).
          Under the [coproc] backend the hot loop mirrors each retiring
          instruction into a tag-queue record; under [nat]/[none] the
          hook is a single never-taken branch.  SMP harts share one
          handle (one coprocessor per machine). *)
}

(** The call stack: frame [k] (0 = oldest) holds the return ip
    [ret_ips.(k)] and the caller's UNAT in bytes [8k .. 8k+7] of
    [ret_unats].  The arrays start empty and double on demand, up to the
    100 000-frame limit past which a call faults. *)
and call_stack = {
  mutable ret_ips : int array;
  mutable ret_unats : Bytes.t;
  mutable depth : int;  (** live frames *)
}

(** State of the dynamic superblock compiler (driven by {!Superblock}).
    Everything here is derivable from the program and the run so far:
    snapshots skip it, and a restored machine starts with a cold block
    cache yet byte-identical simulated counters. *)
and sb = {
  mutable sb_on : bool;
      (** master switch ([Session.Config.superblocks] lands here) *)
  sb_hot : int array;                 (** per-entry-pc execution counts *)
  sb_blocks : sb_block option array;  (** compiled block per entry pc *)
  mutable sb_watched : bool;  (** code-region write watch registered *)
  sb_stats : Stats.superblocks;
}

(** One compiled superblock: a single-entry straight-line region ending
    at the first control transfer (or the length cap), with operands,
    predicates and trace hooks resolved at compile time. *)
and sb_block = {
  sb_entry : int;
  sb_len : int;
  sb_ft : bool;  (** flowtrace.enabled value the body was specialised for *)
  sb_provs : int array;
  sb_prov_counts : int array;
  sb_body : t -> unit;
}

type outcome =
  | Exited of int64            (** [halt] reached; exit status from r8 *)
  | Faulted of Fault.t * int   (** fault and the faulting instruction index *)
  | Out_of_fuel                (** fuel exhausted before termination *)

exception Exit_requested of int64
(** A syscall handler raises this to terminate the program (exit(2)). *)

exception Fault_exn of Fault.t
(** Internal control flow for faults; {!step} converts it to
    {!Faulted}.  Exposed for {!Superblock}, whose block driver observes
    exactly what the interpreter does. *)

exception Halt_exn of int64
(** Internal control flow for [halt]; {!step} converts it to {!Exited}. *)

val create : ?entry:string -> ?mem:Shift_mem.Memory.t -> Shift_isa.Program.t -> t
(** Fresh machine with zeroed registers and [ip] at [entry] (default
    ["_start"], or instruction 0 if absent).  [mem] shares an existing
    memory (SMP harts); by default the machine gets its own. *)

val get_value : t -> Shift_isa.Reg.t -> int64
val set_value : t -> Shift_isa.Reg.t -> int64 -> unit
(** Writes to r0 are discarded. *)

val get_nat : t -> Shift_isa.Reg.t -> bool
val set_nat : t -> Shift_isa.Reg.t -> bool -> unit
val get_unat : t -> int64
val set_unat : t -> int64 -> unit

val call_frames : t -> (int * int64) list
(** The call stack as (return ip, saved UNAT) pairs, top of stack
    first. *)

val set_call_frames : t -> (int * int64) list -> unit
(** Replace the call stack with the given frames (top first), as
    {!call_frames} returns them.
    @raise Invalid_argument past the call-stack limit. *)

val add_io_cycles : t -> int -> unit
(** Charge I/O time from a syscall handler. *)

type status = [ `Yielded | `Finished of outcome ]
(** Result of one bounded engine slice: [`Yielded] means the budget ran
    out with the program still live; [`Finished] carries the terminal
    outcome. *)

val run_for : t -> budget:int -> status
(** The resumable stepping engine: execute at most [budget] instructions
    and suspend.  A machine suspended by [`Yielded] can be resumed by
    calling [run_for] again; the instruction stream (and with it every
    counter in [t.stats]) is independent of how a run is sliced into
    budgets, because suspension happens between instruction groups and
    touches no machine state.  Cycle counts are finalised into [t.stats]
    on every return, including when a syscall handler raises (the policy
    engine propagates alerts as exceptions).  A non-positive budget
    yields immediately. *)

val run : ?fuel:int -> t -> outcome
(** Execute until halt, fault or fuel exhaustion (default fuel 2e9
    instructions): one {!run_for} slice of [fuel] instructions, with
    [`Yielded] surfaced as {!Out_of_fuel}.  Cycle counts are finalised
    into [t.stats] on return.  Exceptions raised by the syscall handler
    other than {!Exit_requested} propagate (the policy engine uses this
    for alerts). *)

val step : t -> outcome option
(** Execute a single instruction; [None] while the program is still
    running. *)

(** {1 Execution internals}

    The constants {!step} charges, and the compiled form {!Superblock}
    strings into blocks.  Not a stable user API. *)

val branch_penalty : int
val chk_penalty : int
val syscall_overhead : int

val compile_instr : Decode.t -> ft:bool -> int -> t -> unit
(** [compile_instr decoded ~ft pc] is instruction [pc] compiled to a
    closure with exactly {!step}'s effect — timing, counters, caches,
    faults, traces — except the [instructions] and [slots_by_prov]
    bumps, which the block driver batches.  [ft] is the
    [flowtrace.enabled] value the closure is specialised for.  It shares
    {!step}'s value semantics in this module, keeps register values
    unboxed and allocates nothing on its normal path. *)
