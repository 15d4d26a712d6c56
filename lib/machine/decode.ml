open Shift_isa

type info = {
  op : Instr.op;
  qp : Pred.t;
  prov_index : int;
  latency : int;
  is_mem : bool;
  reads : Reg.t array;
  writes : Reg.t array;
  pred_writes : Pred.t array;
  target : int;
}

type t = info array

let no_regs : int array = [||]

let latency_of (op : Instr.op) =
  match op with
  | Instr.Ld _ -> 2
  | Instr.Arith (Instr.Mul, _, _, _) -> 3
  | Instr.Arith ((Instr.Div | Instr.Rem), _, _, _) -> 12
  | _ -> 1

let arr = function [] -> no_regs | l -> Array.of_list l

(* The engines index the register file, the NaT bits and the predicates
   without bounds checks, so every register and predicate operand is
   checked here, once per static instruction. *)
let check_one (i : Instr.t) what count r =
  if r < 0 || r >= count then
    invalid_arg (Printf.sprintf "Decode: %s %d out of range in %s" what r (Instr.to_string i))

let check i what count operands = Array.iter (check_one i what count) operands

let info_of program (i : Instr.t) =
  let target =
    match i.Instr.op with
    | Instr.Br l | Instr.Call l | Instr.Lea (_, l) -> Program.target program l
    | Instr.Chk_s { recovery; _ } -> Program.target program recovery
    | _ -> -1
  in
  let info =
    {
      op = i.Instr.op;
      qp = i.Instr.qp;
      prov_index = Prov.index i.Instr.prov;
      latency = latency_of i.Instr.op;
      is_mem = Instr.is_mem i.Instr.op;
      reads = arr (Instr.reads i.Instr.op);
      writes = arr (Instr.writes i.Instr.op);
      pred_writes = arr (Instr.writes_preds i.Instr.op);
      target;
    }
  in
  check i "register" Reg.count info.reads;
  check i "register" Reg.count info.writes;
  check i "predicate" Pred.count info.pred_writes;
  check_one i "predicate" Pred.count info.qp;
  info

let of_program (p : Program.t) = Array.map (info_of p) p.Program.code
