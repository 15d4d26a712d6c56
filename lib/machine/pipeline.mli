(** In-order issue timing model.

    Approximates an Itanium-2-like EPIC core: 6 issue slots per cycle,
    two memory ports, in-order issue with register scoreboarding, and
    predication (a predicated-off instruction occupies its slot but
    neither waits for nor produces operands).  This is what lets the
    instrumentation code overlap with program computation, which is the
    mechanism behind the paper's modest slowdowns: the deferred-exception
    hardware tracks register taint for free, and the inserted bitmap code
    competes mainly for memory ports and issue slots. *)

type t
(** Mutable timing state of one core: the current issue group, the
    register/predicate scoreboard, and the cycle counter. *)

val create : unit -> t
(** A core at cycle zero with an empty scoreboard. *)

(** Issue slots per cycle (6). *)
val width : int

(** Memory operations per cycle (2). *)
val mem_ports : int

val issue :
  t ->
  executing:bool ->
  reads:Shift_isa.Reg.t array ->
  writes:Shift_isa.Reg.t array ->
  pred_writes:Shift_isa.Pred.t array ->
  qp:Shift_isa.Pred.t ->
  is_mem:bool ->
  latency:int ->
  unit
(** Account one instruction.  [executing] is false when the qualifying
    predicate was false.  [latency] is the cycles until the destination
    registers are ready (1 for ALU, 2 for loads, ...).  Operands are the
    pre-decoded arrays of {!Decode.info} — the hot loop issues one of
    these per dynamic instruction, so no lists are allocated here. *)

val compile_issue :
  reads:Shift_isa.Reg.t array ->
  writes:Shift_isa.Reg.t array ->
  pred_writes:Shift_isa.Pred.t array ->
  qp:Shift_isa.Pred.t ->
  is_mem:bool ->
  latency:int ->
  t ->
  unit
(** [compile_issue ~reads ~writes ~pred_writes ~qp ~is_mem ~latency] is
    a closure [fun t -> ...] performing exactly
    [issue t ~executing:true ... ~latency]'s scoreboard transitions,
    with the operand shape and latency specialised at closure-build
    time (dead r0/p0 destinations filtered, loops unrolled, the qp wait
    dropped for p0).  Built per instruction by the superblock compiler
    ({!Cpu.compile_instr}); byte-identical timing to {!issue} is what
    keeps superblock runs indistinguishable from interpreter runs.
    @raise Invalid_argument if a register index is out of range (the
    closure reads the scoreboard unchecked). *)

val compile_issue_off : qp:Shift_isa.Pred.t -> t -> unit
(** The [executing:false] counterpart: a closure accounting a
    predicated-off slot ([latency] is irrelevant — nothing is
    produced). *)

val redirect : t -> penalty:int -> unit
(** A taken control transfer: close the current issue group and charge a
    front-end redirect penalty. *)

val stall : t -> int -> unit
(** Charge [n] cycles of dead time (system-call I/O costs). *)

val cycles : t -> int
(** Cycles elapsed so far. *)

(** {1 Checkpoint/restore}

    The complete timing state of a core, as plain data.  Restoring an
    exported snapshot into a fresh core reproduces the exact issue
    behaviour of the original: the scoreboard, the current issue group
    and the cycle counter all carry over, so cycle counts after a
    restore are byte-identical to an unbroken run. *)

type snap = {
  s_cycle : int;
  s_slots_used : int;
  s_mem_used : int;
  s_reg_ready : int array;
  s_pred_ready : int array;
}

val export : t -> snap
(** A deep copy of the timing state. *)

val import : t -> snap -> unit
(** Overwrite the core's timing state with a previously exported snap.
    @raise Invalid_argument on a scoreboard size mismatch. *)
