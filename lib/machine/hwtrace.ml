(* The hardware observation trace: one entry per architecturally
   executed guest load/store that touches the L1D model, recording the
   cache-set index the access mapped to (what a prime+probe attacker
   observes) plus the hit/miss bit.  Both execution engines — the
   interpreter step in cpu.ml and the fused superblock closures — emit
   through [record] at the same program points, so the trace is
   identical with the compiler on or off; the QCheck gate in
   test_superblock.ml holds that invariant.

   Entries also carry the Flowtrace id of the *address* register at the
   moment of the access.  When a trace divergence is found, that id is
   what lets the leak detector walk the provenance chain back to the
   exact tainted input bytes that steered the access (Leak.detect). *)

type entry = {
  e_pc : int;  (* guest pc of the load/store *)
  e_set : int;  (* cache-set index the address mapped to *)
  e_hit : bool;
  e_store : bool;
  e_prov : int;  (* Flowtrace id of the address register; 0 = clean *)
}

(* The buffer is three parallel [int] arrays, so recording an access
   allocates nothing: pc, set, and the provenance id with the hit and
   store bits packed below it.  [get]/[entries] build [entry] records on
   demand. *)
type t = {
  mutable enabled : bool;
  mutable pcs : int array;
  mutable sets : int array;
  mutable flags : int array;  (* prov lsl 2 lor store lsl 1 lor hit *)
  mutable len : int;
  mutable dropped : int;
  limit : int;
}

let default_limit = 1 lsl 20

let disabled () =
  { enabled = false; pcs = [||]; sets = [||]; flags = [||]; len = 0; dropped = 0; limit = 0 }

let create ?(limit = default_limit) () =
  {
    enabled = true;
    pcs = Array.make 256 0;
    sets = Array.make 256 0;
    flags = Array.make 256 0;
    len = 0;
    dropped = 0;
    limit;
  }

let grow a n =
  let b = Array.make n 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let record t ~pc ~set ~hit ~store ~prov =
  if t.len >= t.limit then t.dropped <- t.dropped + 1
  else begin
    if t.len = Array.length t.pcs then begin
      let n = max 256 (2 * t.len) in
      t.pcs <- grow t.pcs n;
      t.sets <- grow t.sets n;
      t.flags <- grow t.flags n
    end;
    let i = t.len in
    Array.unsafe_set t.pcs i pc;
    Array.unsafe_set t.sets i set;
    Array.unsafe_set t.flags i
      ((prov lsl 2) lor (if store then 2 else 0) lor if hit then 1 else 0);
    t.len <- i + 1
  end

let length t = t.len
let dropped t = t.dropped

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Hwtrace.get: index out of range";
  let f = t.flags.(i) in
  {
    e_pc = t.pcs.(i);
    e_set = t.sets.(i);
    e_hit = f land 1 = 1;
    e_store = f land 2 = 2;
    e_prov = f asr 2;
  }

let entries t = Array.init t.len (get t)

let clear t =
  t.len <- 0;
  t.dropped <- 0
