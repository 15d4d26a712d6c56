module Image = Shift_compiler.Image
module Cpu = Shift_machine.Cpu
module Smp = Shift_machine.Smp
module Exec = Shift_machine.Exec
module Fault = Shift_machine.Fault
module Stats = Shift_machine.Stats
module Pipeline = Shift_machine.Pipeline
module Cache = Shift_machine.Cache
module Flowtrace = Shift_machine.Flowtrace
module Policy = Shift_policy.Policy
module Alert = Shift_policy.Alert
module World = Shift_os.World
module Process = Shift_os.Process
module Ospipe = Shift_os.Pipe
module Memory = Shift_mem.Memory
module Provenance = Shift_mem.Provenance
module Tracking = Shift_tracking.Tracking
module Backend = Shift_tracking.Backend

type threading =
  | T_single
  | T_threads of int option
  | T_procs of { tp_quantum : int option; tp_comm : string option }

type config = {
  c_policy : Policy.t;
  c_io_cost : World.io_cost;
  c_fuel : int;
  c_threading : threading;
  c_trace : Flowtrace.options option;
  c_hwtrace : bool;
  c_superblocks : bool;
  c_backend : Backend.t;
  c_images : (string * Image.t) list;
}

type hart = {
  h_values : int64 array;
  h_nats : bool array;
  h_preds : bool array;
  h_unat : int64;
  h_ip : int;
  h_stats : Stats.t;
  h_pipe : Pipeline.snap;
  h_cache : Cache.snap;
  h_call_stack : (int * int64) list;
  h_ftregs : (int array * int array) option;
}

type proc_snap = {
  ps_pid : int;
  ps_parent : int;
  ps_image : string option;
  ps_state : Process.state;
  ps_hart : hart;
  ps_mem : (int64 * string) list;
  ps_prov : (int64 * string) list;
  ps_ctx : World.ctx_state;
}

type machine =
  | M_cpu of hart
  | M_smp of {
      sm_quantum : int;
      sm_harts : (int * Smp.state * hart) list;
      sm_round : (int * int) list;
      sm_finished : Cpu.outcome option;
    }
  | M_procs of {
      pm_quantum : int;
      pm_next_pid : int;
      pm_procs : proc_snap list;
      pm_round : (int * int) list;
      pm_finished : Cpu.outcome option;
      pm_retired : Stats.t;
    }

type t = {
  meta : (string * string) list;
  image : Image.t;
  config : config;
  fuel_left : int;
  result : Report.outcome option;
  memory : (int64 * string) list;
  machine : machine;
  world : World.dump;
  flow : (Flowtrace.dump * (int64 * string) list) option;
  tracking : Tracking.dump option;
      (** tag-coprocessor state (queue, tag file, lag clock); [None]
          under the nat and none backends *)
}

let version = 2

(* ---------- capture ---------- *)

let export_cpu ~traced (cpu : Cpu.t) =
  {
    h_values = Array.init Shift_isa.Reg.count (Cpu.get_value cpu);
    h_nats = Array.copy cpu.Cpu.nats;
    h_preds = Array.copy cpu.Cpu.preds;
    h_unat = Cpu.get_unat cpu;
    h_ip = cpu.Cpu.ip;
    h_stats = Stats.copy cpu.Cpu.stats;
    h_pipe = Pipeline.export cpu.Cpu.pipe;
    h_cache = Cache.export cpu.Cpu.cache;
    h_call_stack = Cpu.call_frames cpu;
    h_ftregs =
      (if traced then
         Some
           ( Array.copy cpu.Cpu.ftregs.Flowtrace.id,
             Array.copy cpu.Cpu.ftregs.Flowtrace.depth )
       else None);
  }

let import_stats (src : Stats.t) (dst : Stats.t) =
  dst.Stats.instructions <- src.Stats.instructions;
  dst.Stats.cycles <- src.Stats.cycles;
  dst.Stats.loads <- src.Stats.loads;
  dst.Stats.stores <- src.Stats.stores;
  dst.Stats.branches <- src.Stats.branches;
  dst.Stats.predicated_off <- src.Stats.predicated_off;
  dst.Stats.syscalls <- src.Stats.syscalls;
  dst.Stats.io_cycles <- src.Stats.io_cycles;
  if
    Array.length dst.Stats.slots_by_prov
    <> Array.length src.Stats.slots_by_prov
  then invalid_arg "Snapshot.import_cpu: issue-slot provenance arity mismatch";
  Array.blit src.Stats.slots_by_prov 0 dst.Stats.slots_by_prov 0
    (Array.length src.Stats.slots_by_prov)

let import_cpu hart (cpu : Cpu.t) =
  if Array.length hart.h_values <> Shift_isa.Reg.count then
    invalid_arg "Snapshot.import_cpu: register file arity mismatch";
  if Array.length hart.h_nats <> Array.length cpu.Cpu.nats then
    invalid_arg "Snapshot.import_cpu: NaT file arity mismatch";
  if Array.length hart.h_preds <> Array.length cpu.Cpu.preds then
    invalid_arg "Snapshot.import_cpu: predicate file arity mismatch";
  Array.iteri (fun r v -> Bytes.set_int64_le cpu.Cpu.values (r * 8) v) hart.h_values;
  Array.blit hart.h_nats 0 cpu.Cpu.nats 0 (Array.length hart.h_nats);
  Array.blit hart.h_preds 0 cpu.Cpu.preds 0 (Array.length hart.h_preds);
  Cpu.set_unat cpu hart.h_unat;
  cpu.Cpu.ip <- hart.h_ip;
  import_stats hart.h_stats cpu.Cpu.stats;
  Pipeline.import cpu.Cpu.pipe hart.h_pipe;
  Cache.import cpu.Cpu.cache hart.h_cache;
  Cpu.set_call_frames cpu hart.h_call_stack;
  match hart.h_ftregs with
  | None -> ()
  | Some (ids, depths) ->
      let regs = cpu.Cpu.ftregs in
      if
        Array.length ids <> Array.length regs.Flowtrace.id
        || Array.length depths <> Array.length regs.Flowtrace.depth
      then invalid_arg "Snapshot.import_cpu: ftregs arity mismatch";
      Array.blit ids 0 regs.Flowtrace.id 0 (Array.length ids);
      Array.blit depths 0 regs.Flowtrace.depth 0 (Array.length depths)

let dump_memory mem =
  Memory.fold_pages mem ~init:[] ~f:(fun acc key page ->
      (key, Bytes.to_string page) :: acc)
  |> List.rev

let dump_provenance pmap =
  Provenance.fold_pages pmap ~init:[] ~f:(fun acc key page ->
      (key, Bytes.to_string page) :: acc)
  |> List.rev

let load_memory mem pages =
  List.iter (fun (key, data) -> Memory.load_page mem key data) pages

let load_provenance pmap pages =
  List.iter (fun (key, data) -> Provenance.load_page pmap key data) pages

let capture ?(meta = []) ?tracking ~image ~config ~fuel_left ~result ~engine
    ~world () =
  let traced = config.c_trace <> None in
  let hart0 = Exec.hart0 engine in
  let machine =
    match Exec.machine engine with
    | Exec.Custom _ ->
        (* a process-table engine checkpoints through capture_procs *)
        invalid_arg "Snapshot.capture: custom engines have their own capture"
    | Exec.Cpu cpu -> M_cpu (export_cpu ~traced cpu)
    | Exec.Smp smp ->
        M_smp
          {
            sm_quantum = Smp.quantum smp;
            sm_harts =
              List.map
                (fun (id, state, cpu) -> (id, state, export_cpu ~traced cpu))
                (Smp.harts smp);
            sm_round = Smp.round smp;
            sm_finished = Smp.finished smp;
          }
  in
  let flow =
    if traced then
      let ft = hart0.Cpu.flowtrace in
      Some (Flowtrace.dump ft, dump_provenance (Flowtrace.provenance ft))
    else None
  in
  {
    meta;
    image;
    config;
    fuel_left;
    result;
    memory = dump_memory hart0.Cpu.mem;
    machine;
    world = World.dump world;
    flow;
    tracking;
  }

(* Like [capture], for a process-table machine: every process carries
   its own address space and provenance shadow, so the pages live
   per-process and the top-level [memory] (and the flow entry's page
   list) stay empty. *)
let capture_procs ?(meta = []) ?tracking ~image ~config ~fuel_left ~result
    ~(procs : Process.t) ~world () =
  let traced = config.c_trace <> None in
  let pm_procs =
    List.map
      (fun (p : Process.part) ->
        {
          ps_pid = p.Process.p_pid;
          ps_parent = p.Process.p_parent;
          ps_image = p.Process.p_image;
          ps_state = p.Process.p_state;
          ps_hart = export_cpu ~traced p.Process.p_cpu;
          ps_mem = dump_memory p.Process.p_cpu.Cpu.mem;
          ps_prov = (if traced then dump_provenance p.Process.p_pmap else []);
          ps_ctx = World.dump_ctx p.Process.p_ctx;
        })
      (Process.parts procs)
  in
  let flow =
    if traced then
      Some (Flowtrace.dump (Process.pid1_cpu procs).Cpu.flowtrace, [])
    else None
  in
  {
    meta;
    image;
    config;
    fuel_left;
    result;
    memory = [];
    machine =
      M_procs
        {
          pm_quantum = Process.quantum procs;
          pm_next_pid = Process.next_pid procs;
          pm_procs;
          pm_round = Process.round procs;
          pm_finished = Process.finished procs;
          pm_retired = Stats.copy (Process.retired procs);
        };
    world = World.dump world;
    flow;
    tracking;
  }

(* ---------- JSON serialisation ---------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let hex_encode s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  let digit k =
    Char.chr (if k < 10 then Char.code '0' + k else Char.code 'a' + k - 10)
  in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set b (2 * i) (digit (c lsr 4));
    Bytes.set b ((2 * i) + 1) (digit (c land 0xf))
  done;
  Bytes.to_string b

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then bad "odd-length hex payload";
  let v c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> bad "invalid hex digit %C" c
  in
  String.init (n / 2) (fun i ->
      Char.chr ((v s.[2 * i] lsl 4) lor v s.[(2 * i) + 1]))

(* int64 values are serialised as decimal strings: [Results.Int] is a
   native OCaml int, which cannot represent the full register range. *)
let j64 v = Results.String (Int64.to_string v)

let jbool b = Results.Bool b
let jint n = Results.Int n
let jstr s = Results.String s
let jopt f = function None -> Results.Null | Some v -> f v

let jbits a =
  Results.String (String.init (Array.length a) (fun i -> if a.(i) then '1' else '0'))

let jints a = Results.List (Array.to_list a |> List.map jint)
let ji64s a = Results.List (Array.to_list a |> List.map j64)

(* ---- decoding primitives ---- *)

let field name j =
  match Results.member name j with
  | Some v -> v
  | None -> bad "missing field %S" name

let as_int = function Results.Int n -> n | _ -> bad "expected an integer"
let as_bool = function Results.Bool b -> b | _ -> bad "expected a boolean"
let as_string = function Results.String s -> s | _ -> bad "expected a string"
let as_list = function Results.List l -> l | _ -> bad "expected a list"

let as_i64 = function
  | Results.String s -> (
      match Int64.of_string_opt s with
      | Some v -> v
      | None -> bad "expected an int64 string, got %S" s)
  | Results.Int n -> Int64.of_int n
  | _ -> bad "expected an int64"

let as_opt f = function Results.Null -> None | j -> Some (f j)

let as_bits j =
  let s = as_string j in
  Array.init (String.length s) (fun i ->
      match s.[i] with
      | '1' -> true
      | '0' -> false
      | c -> bad "invalid bit %C" c)

let as_ints j = as_list j |> List.map as_int |> Array.of_list
let as_i64s j = as_list j |> List.map as_i64 |> Array.of_list

let ifield name j = as_int (field name j)
let sfield name j = as_string (field name j)
let bfield name j = as_bool (field name j)
let i64field name j = as_i64 (field name j)

(* ---- faults, alerts, outcomes ---- *)

let nat_use_to_json (u : Fault.nat_use) =
  jstr
    (match u with
    | Fault.Load_address -> "load_address"
    | Fault.Store_address -> "store_address"
    | Fault.Store_value -> "store_value"
    | Fault.Branch_target -> "branch_target"
    | Fault.Call_target -> "call_target")

let nat_use_of_json j : Fault.nat_use =
  match as_string j with
  | "load_address" -> Fault.Load_address
  | "store_address" -> Fault.Store_address
  | "store_value" -> Fault.Store_value
  | "branch_target" -> Fault.Branch_target
  | "call_target" -> Fault.Call_target
  | s -> bad "unknown NaT use %S" s

let fault_to_json (f : Fault.t) =
  Results.Obj
    (match f with
    | Fault.Nat_consumption u ->
        [ ("fault", jstr "nat_consumption"); ("use", nat_use_to_json u) ]
    | Fault.Invalid_address a ->
        [ ("fault", jstr "invalid_address"); ("addr", j64 a) ]
    | Fault.Invalid_branch a ->
        [ ("fault", jstr "invalid_branch"); ("target", j64 a) ]
    | Fault.Div_by_zero -> [ ("fault", jstr "div_by_zero") ]
    | Fault.Call_stack_overflow -> [ ("fault", jstr "call_stack_overflow") ]
    | Fault.Call_stack_underflow -> [ ("fault", jstr "call_stack_underflow") ])

let fault_of_json j : Fault.t =
  match sfield "fault" j with
  | "nat_consumption" -> Fault.Nat_consumption (nat_use_of_json (field "use" j))
  | "invalid_address" -> Fault.Invalid_address (i64field "addr" j)
  | "invalid_branch" -> Fault.Invalid_branch (i64field "target" j)
  | "div_by_zero" -> Fault.Div_by_zero
  | "call_stack_overflow" -> Fault.Call_stack_overflow
  | "call_stack_underflow" -> Fault.Call_stack_underflow
  | s -> bad "unknown fault %S" s

let alert_to_json (a : Alert.t) =
  Results.Obj
    [
      ("policy", jstr a.Alert.policy);
      ("message", jstr a.Alert.message);
      ("signature", jopt jstr a.Alert.signature);
      ("chain", Results.List (List.map jstr a.Alert.chain));
    ]

let alert_of_json j : Alert.t =
  {
    Alert.policy = sfield "policy" j;
    message = sfield "message" j;
    signature = as_opt as_string (field "signature" j);
    chain = as_list (field "chain" j) |> List.map as_string;
  }

let outcome_to_json (o : Report.outcome) =
  Results.Obj
    (match o with
    | Report.Exited code -> [ ("kind", jstr "exited"); ("code", j64 code) ]
    | Report.Alert a -> [ ("kind", jstr "alert"); ("alert", alert_to_json a) ]
    | Report.Fault f -> [ ("kind", jstr "fault"); ("fault", fault_to_json f) ]
    | Report.Timeout -> [ ("kind", jstr "timeout") ])

let outcome_of_json j : Report.outcome =
  match sfield "kind" j with
  | "exited" -> Report.Exited (i64field "code" j)
  | "alert" -> Report.Alert (alert_of_json (field "alert" j))
  | "fault" -> Report.Fault (fault_of_json (field "fault" j))
  | "timeout" -> Report.Timeout
  | s -> bad "unknown outcome kind %S" s

let cpu_outcome_to_json (o : Cpu.outcome) =
  Results.Obj
    (match o with
    | Cpu.Exited v -> [ ("kind", jstr "exited"); ("value", j64 v) ]
    | Cpu.Faulted (f, ip) ->
        [ ("kind", jstr "faulted"); ("fault", fault_to_json f); ("ip", jint ip) ]
    | Cpu.Out_of_fuel -> [ ("kind", jstr "out_of_fuel") ])

let cpu_outcome_of_json j : Cpu.outcome =
  match sfield "kind" j with
  | "exited" -> Cpu.Exited (i64field "value" j)
  | "faulted" -> Cpu.Faulted (fault_of_json (field "fault" j), ifield "ip" j)
  | "out_of_fuel" -> Cpu.Out_of_fuel
  | s -> bad "unknown machine outcome %S" s

let hart_state_to_json (s : Smp.state) =
  Results.Obj
    (match s with
    | Smp.Running -> [ ("state", jstr "running") ]
    | Smp.Done v -> [ ("state", jstr "done"); ("value", j64 v) ]
    | Smp.Crashed (f, ip) ->
        [ ("state", jstr "crashed"); ("fault", fault_to_json f); ("ip", jint ip) ])

let hart_state_of_json j : Smp.state =
  match sfield "state" j with
  | "running" -> Smp.Running
  | "done" -> Smp.Done (i64field "value" j)
  | "crashed" -> Smp.Crashed (fault_of_json (field "fault" j), ifield "ip" j)
  | s -> bad "unknown hart state %S" s

let proc_state_to_json (s : Process.state) =
  Results.Obj
    (match s with
    | Process.Run -> [ ("state", jstr "run") ]
    | Process.Zombie v -> [ ("state", jstr "zombie"); ("value", j64 v) ]
    | Process.Crashed (f, ip) ->
        [ ("state", jstr "crashed"); ("fault", fault_to_json f); ("ip", jint ip) ])

let proc_state_of_json j : Process.state =
  match sfield "state" j with
  | "run" -> Process.Run
  | "zombie" -> Process.Zombie (i64field "value" j)
  | "crashed" -> Process.Crashed (fault_of_json (field "fault" j), ifield "ip" j)
  | s -> bad "unknown process state %S" s

(* ---- configuration ---- *)

let policy_to_json (p : Policy.t) =
  Results.Obj
    [
      ("taint_network", jbool p.Policy.taint_network);
      ("taint_files", jbool p.Policy.taint_files);
      ("h1", jbool p.Policy.h1);
      ("h2", jopt jstr p.Policy.h2);
      ("h3", jbool p.Policy.h3);
      ("h4", jbool p.Policy.h4);
      ("h5", jbool p.Policy.h5);
      ("low_level", jbool p.Policy.low_level);
      ( "action",
        jstr
          (match p.Policy.action with
          | Policy.Halt_program -> "halt"
          | Policy.Log_only -> "log") );
    ]

let policy_of_json j : Policy.t =
  {
    Policy.taint_network = bfield "taint_network" j;
    taint_files = bfield "taint_files" j;
    h1 = bfield "h1" j;
    h2 = as_opt as_string (field "h2" j);
    h3 = bfield "h3" j;
    h4 = bfield "h4" j;
    h5 = bfield "h5" j;
    low_level = bfield "low_level" j;
    action =
      (match sfield "action" j with
      | "halt" -> Policy.Halt_program
      | "log" -> Policy.Log_only
      | s -> bad "unknown policy action %S" s);
  }

let io_cost_to_json (c : World.io_cost) =
  Results.Obj
    [
      ("per_call", jint c.World.per_call);
      ("per_byte", jint c.World.per_byte);
      ("sendfile_per_byte", jint c.World.sendfile_per_byte);
    ]

let io_cost_of_json j : World.io_cost =
  {
    World.per_call = ifield "per_call" j;
    per_byte = ifield "per_byte" j;
    sendfile_per_byte = ifield "sendfile_per_byte" j;
  }

let threading_to_json = function
  | T_single -> Results.Obj [ ("kind", jstr "single") ]
  | T_threads q ->
      Results.Obj [ ("kind", jstr "threads"); ("quantum", jopt jint q) ]
  | T_procs { tp_quantum; tp_comm } ->
      Results.Obj
        [
          ("kind", jstr "procs");
          ("quantum", jopt jint tp_quantum);
          ("comm", jopt jstr tp_comm);
        ]

let threading_of_json j =
  match sfield "kind" j with
  | "single" -> T_single
  | "threads" -> T_threads (as_opt as_int (field "quantum" j))
  | "procs" ->
      T_procs
        {
          tp_quantum = as_opt as_int (field "quantum" j);
          tp_comm = as_opt as_string (field "comm" j);
        }
  | s -> bad "unknown threading kind %S" s

let trace_options_to_json (o : Flowtrace.options) =
  Results.Obj
    [
      ("capacity", jint o.Flowtrace.capacity);
      ( "only",
        jopt
          (fun ks ->
            Results.List (List.map (fun k -> jstr (Flowtrace.kind_to_string k)) ks))
          o.Flowtrace.only );
    ]

let trace_options_of_json j : Flowtrace.options =
  {
    Flowtrace.capacity = ifield "capacity" j;
    only =
      as_opt
        (fun l ->
          as_list l
          |> List.map (fun k ->
                 let s = as_string k in
                 match Flowtrace.kind_of_string s with
                 | Some k -> k
                 | None -> bad "unknown event kind %S" s))
        (field "only" j);
  }

let config_to_json c =
  Results.Obj
    ([
       ("policy", policy_to_json c.c_policy);
       ("io_cost", io_cost_to_json c.c_io_cost);
       ("fuel", jint c.c_fuel);
       ("threading", threading_to_json c.c_threading);
       ("trace", jopt trace_options_to_json c.c_trace);
       ("superblocks", jbool c.c_superblocks);
     ]
    (* appended only when on, so untraced snapshots stay byte-identical
       to those taken before the observation channel existed *)
    @ (if c.c_hwtrace then [ ("hwtrace", jbool true) ] else [])
    (* appended only off the default so nat snapshots stay byte-identical
       to those taken before backends existed *)
    @ (match c.c_backend with
      | Backend.Nat -> []
      | b -> [ ("backend", jstr (Backend.to_string b)) ])
    (* likewise appended only when the session carries exec'able aux
       images (multi-process runs) *)
    @
    match c.c_images with
    | [] -> []
    | images ->
        [
          ( "images",
            Results.List
              (List.map
                 (fun (name, img) ->
                   Results.Obj
                     [
                       ("name", jstr name);
                       ("image", jstr (hex_encode (Marshal.to_string img [])));
                     ])
                 images) );
        ])

let config_of_json j =
  {
    c_policy = policy_of_json (field "policy" j);
    c_io_cost = io_cost_of_json (field "io_cost" j);
    c_fuel = ifield "fuel" j;
    c_threading = threading_of_json (field "threading" j);
    c_trace = as_opt trace_options_of_json (field "trace" j);
    (* absent means the observation channel is off — true of every
       snapshot taken before it existed *)
    c_hwtrace =
      (match Results.member "hwtrace" j with
      | Some v -> as_bool v
      | None -> false);
    (* absent in snapshots taken before the superblock compiler existed:
       those ran with the interpreter-equivalent default *)
    c_superblocks =
      (match Results.member "superblocks" j with
      | Some v -> as_bool v
      | None -> true);
    (* absent means the default backend, in old and new snapshots alike *)
    c_backend =
      (match Results.member "backend" j with
      | Some v -> (
          match Backend.of_string (as_string v) with
          | Ok b -> b
          | Error e -> bad "%s" e)
      | None -> Backend.Nat);
    c_images =
      (match Results.member "images" j with
      | None -> []
      | Some v ->
          as_list v
          |> List.map (fun e ->
                 let img : Image.t =
                   try Marshal.from_string (hex_decode (sfield "image" e)) 0
                   with Failure _ -> bad "corrupt embedded aux image"
                 in
                 (sfield "name" e, img)));
  }

(* ---- pages and world ---- *)

let pages_to_json pages =
  Results.List
    (List.map
       (fun (key, data) ->
         Results.Obj [ ("key", j64 key); ("data", jstr (hex_encode data)) ])
       pages)

let pages_of_json j =
  as_list j
  |> List.map (fun p -> (i64field "key" p, hex_decode (sfield "data" p)))

let fd_entry_to_json (e : World.fd_entry) =
  Results.Obj
    (match e with
    | World.Fstream oid -> [ ("kind", jstr "stream"); ("oid", jint oid) ]
    | World.Fpipe_r oid -> [ ("kind", jstr "pipe_r"); ("oid", jint oid) ]
    | World.Fpipe_w oid -> [ ("kind", jstr "pipe_w"); ("oid", jint oid) ])

let fd_entry_of_json j : World.fd_entry =
  let oid = ifield "oid" j in
  match sfield "kind" j with
  | "stream" -> World.Fstream oid
  | "pipe_r" -> World.Fpipe_r oid
  | "pipe_w" -> World.Fpipe_w oid
  | s -> bad "unknown fd entry kind %S" s

let arg_value_to_json (a : World.arg_value) =
  Results.Obj
    [
      ("bytes", jstr (hex_encode a.World.a_bytes));
      ("taints", jbits a.World.a_taints);
      ("provs", jints a.World.a_provs);
    ]

let arg_value_of_json j : World.arg_value =
  {
    World.a_bytes = hex_decode (sfield "bytes" j);
    a_taints = as_bits (field "taints" j);
    a_provs = as_ints (field "provs" j);
  }

let pipe_seg_to_json (s : Ospipe.seg_state) =
  Results.Obj
    [
      ("data", jstr (hex_encode s.Ospipe.sg_data));
      ("taints", jbits s.Ospipe.sg_taints);
      ("provs", jints s.Ospipe.sg_provs);
      ("pid", jint s.Ospipe.sg_pid);
      ("comm", jstr s.Ospipe.sg_comm);
      ("off", jint s.Ospipe.sg_off);
    ]

let pipe_seg_of_json j : Ospipe.seg_state =
  {
    Ospipe.sg_data = hex_decode (sfield "data" j);
    sg_taints = as_bits (field "taints" j);
    sg_provs = as_ints (field "provs" j);
    sg_pid = ifield "pid" j;
    sg_comm = sfield "comm" j;
    sg_off = ifield "off" j;
  }

let obj_state_to_json (o : World.obj_state) =
  Results.Obj
    (match o with
    | World.Os_stream s ->
        [
          ("kind", jstr "stream");
          ("content", jstr s.World.fd_content);
          ("pos", jint s.World.fd_pos);
          ("tainted", jbool s.World.fd_tainted);
          ("path", jopt jstr s.World.fd_path);
        ]
    | World.Os_pipe p ->
        [
          ("kind", jstr "pipe");
          ("segs", Results.List (List.map pipe_seg_to_json p.Ospipe.st_segs));
          ("readers", jint p.Ospipe.st_readers);
          ("writers", jint p.Ospipe.st_writers);
        ])

let obj_state_of_json j : World.obj_state =
  match sfield "kind" j with
  | "stream" ->
      World.Os_stream
        {
          World.fd_content = sfield "content" j;
          fd_pos = ifield "pos" j;
          fd_tainted = bfield "tainted" j;
          fd_path = as_opt as_string (field "path" j);
        }
  | "pipe" ->
      World.Os_pipe
        {
          Ospipe.st_segs = as_list (field "segs" j) |> List.map pipe_seg_of_json;
          st_readers = ifield "readers" j;
          st_writers = ifield "writers" j;
        }
  | s -> bad "unknown object kind %S" s

let ctx_to_json (c : World.ctx_state) =
  Results.Obj
    [
      ("pid", jint c.World.cx_pid);
      ("comm", jstr c.World.cx_comm);
      ( "fds",
        Results.List
          (List.map
             (fun (fd, e) ->
               Results.Obj [ ("fd", jint fd); ("entry", fd_entry_to_json e) ])
             c.World.cx_fds) );
      ("next_fd", jint c.World.cx_next_fd);
      ("brk", j64 c.World.cx_brk);
      ("crumbs", Results.List (List.map jstr c.World.cx_crumbs));
      ("argv", Results.List (List.map arg_value_to_json c.World.cx_argv));
    ]

let ctx_of_json j : World.ctx_state =
  {
    World.cx_pid = ifield "pid" j;
    cx_comm = sfield "comm" j;
    cx_fds =
      as_list (field "fds" j)
      |> List.map (fun f -> (ifield "fd" f, fd_entry_of_json (field "entry" f)));
    cx_next_fd = ifield "next_fd" j;
    cx_brk = i64field "brk" j;
    cx_crumbs = as_list (field "crumbs" j) |> List.map as_string;
    cx_argv = as_list (field "argv" j) |> List.map arg_value_of_json;
  }

let world_to_json (d : World.dump) =
  Results.Obj
    [
      ( "files",
        Results.List
          (List.map
             (fun (path, content, tainted) ->
               Results.Obj
                 [
                   ("path", jstr path);
                   ("content", jstr content);
                   ("tainted", jbool tainted);
                 ])
             d.World.d_files) );
      ( "objs",
        Results.List
          (List.map
             (fun (oid, refs, st) ->
               Results.Obj
                 [
                   ("oid", jint oid);
                   ("refs", jint refs);
                   ("state", obj_state_to_json st);
                 ])
             d.World.d_objs) );
      ("next_oid", jint d.World.d_next_oid);
      ("ctx", ctx_to_json d.World.d_ctx);
      ("pending", Results.List (List.map jstr d.World.d_pending));
      ("output", jstr d.World.d_output);
      ("html", jstr d.World.d_html);
      ("sql", Results.List (List.map jstr d.World.d_sql));
      ("commands", Results.List (List.map jstr d.World.d_commands));
      ("alerts", Results.List (List.map alert_to_json d.World.d_alerts));
    ]

let world_of_json j : World.dump =
  {
    World.d_files =
      as_list (field "files" j)
      |> List.map (fun f ->
             (sfield "path" f, sfield "content" f, bfield "tainted" f));
    d_objs =
      as_list (field "objs" j)
      |> List.map (fun o ->
             (ifield "oid" o, ifield "refs" o, obj_state_of_json (field "state" o)));
    d_next_oid = ifield "next_oid" j;
    d_ctx = ctx_of_json (field "ctx" j);
    d_pending = as_list (field "pending" j) |> List.map as_string;
    d_output = sfield "output" j;
    d_html = sfield "html" j;
    d_sql = as_list (field "sql" j) |> List.map as_string;
    d_commands = as_list (field "commands" j) |> List.map as_string;
    d_alerts = as_list (field "alerts" j) |> List.map alert_of_json;
  }

(* ---- machine state ---- *)

let stats_to_json (s : Stats.t) =
  Results.Obj
    [
      ("instructions", jint s.Stats.instructions);
      ("cycles", jint s.Stats.cycles);
      ("loads", jint s.Stats.loads);
      ("stores", jint s.Stats.stores);
      ("branches", jint s.Stats.branches);
      ("predicated_off", jint s.Stats.predicated_off);
      ("syscalls", jint s.Stats.syscalls);
      ("io_cycles", jint s.Stats.io_cycles);
      ("slots_by_prov", jints s.Stats.slots_by_prov);
    ]

let stats_of_json j : Stats.t =
  let s = Stats.create () in
  s.Stats.instructions <- ifield "instructions" j;
  s.Stats.cycles <- ifield "cycles" j;
  s.Stats.loads <- ifield "loads" j;
  s.Stats.stores <- ifield "stores" j;
  s.Stats.branches <- ifield "branches" j;
  s.Stats.predicated_off <- ifield "predicated_off" j;
  s.Stats.syscalls <- ifield "syscalls" j;
  s.Stats.io_cycles <- ifield "io_cycles" j;
  let slots = as_ints (field "slots_by_prov" j) in
  if Array.length slots <> Array.length s.Stats.slots_by_prov then
    bad "issue-slot provenance arity mismatch";
  Array.blit slots 0 s.Stats.slots_by_prov 0 (Array.length slots);
  s

let pipe_to_json (p : Pipeline.snap) =
  Results.Obj
    [
      ("cycle", jint p.Pipeline.s_cycle);
      ("slots_used", jint p.Pipeline.s_slots_used);
      ("mem_used", jint p.Pipeline.s_mem_used);
      ("reg_ready", jints p.Pipeline.s_reg_ready);
      ("pred_ready", jints p.Pipeline.s_pred_ready);
    ]

let pipe_of_json j : Pipeline.snap =
  {
    Pipeline.s_cycle = ifield "cycle" j;
    s_slots_used = ifield "slots_used" j;
    s_mem_used = ifield "mem_used" j;
    s_reg_ready = as_ints (field "reg_ready" j);
    s_pred_ready = as_ints (field "pred_ready" j);
  }

let cache_to_json (c : Cache.snap) =
  Results.Obj
    [
      ("lines", ji64s c.Cache.s_lines);
      ("hits", jint c.Cache.s_hits);
      ("misses", jint c.Cache.s_misses);
      ("line_shift", jint c.Cache.s_line_shift);
    ]

let cache_of_json j : Cache.snap =
  {
    Cache.s_lines = as_i64s (field "lines" j);
    s_hits = ifield "hits" j;
    s_misses = ifield "misses" j;
    (* absent in images written before the geometry check: those were
       all taken under the default 64-byte lines *)
    s_line_shift =
      (match Results.member "line_shift" j with
      | Some (Results.Int n) -> n
      | _ -> 6);
  }

let hart_to_json h =
  Results.Obj
    [
      ("values", ji64s h.h_values);
      ("nats", jbits h.h_nats);
      ("preds", jbits h.h_preds);
      ("unat", j64 h.h_unat);
      ("ip", jint h.h_ip);
      ("stats", stats_to_json h.h_stats);
      ("pipe", pipe_to_json h.h_pipe);
      ("cache", cache_to_json h.h_cache);
      ( "call_stack",
        Results.List
          (List.map
             (fun (ret, sp) -> Results.List [ jint ret; j64 sp ])
             h.h_call_stack) );
      ( "ftregs",
        jopt
          (fun (ids, depths) ->
            Results.Obj [ ("id", jints ids); ("depth", jints depths) ])
          h.h_ftregs );
    ]

let hart_of_json j =
  {
    h_values = as_i64s (field "values" j);
    h_nats = as_bits (field "nats" j);
    h_preds = as_bits (field "preds" j);
    h_unat = i64field "unat" j;
    h_ip = ifield "ip" j;
    h_stats = stats_of_json (field "stats" j);
    h_pipe = pipe_of_json (field "pipe" j);
    h_cache = cache_of_json (field "cache" j);
    h_call_stack =
      as_list (field "call_stack" j)
      |> List.map (function
           | Results.List [ ret; sp ] -> (as_int ret, as_i64 sp)
           | _ -> bad "malformed call-stack frame");
    h_ftregs =
      as_opt
        (fun o -> (as_ints (field "id" o), as_ints (field "depth" o)))
        (field "ftregs" j);
  }

let machine_to_json = function
  | M_cpu h -> Results.Obj [ ("shape", jstr "cpu"); ("hart", hart_to_json h) ]
  | M_smp { sm_quantum; sm_harts; sm_round; sm_finished } ->
      Results.Obj
        [
          ("shape", jstr "smp");
          ("quantum", jint sm_quantum);
          ( "harts",
            Results.List
              (List.map
                 (fun (id, state, h) ->
                   Results.Obj
                     [
                       ("id", jint id);
                       ("state", hart_state_to_json state);
                       ("hart", hart_to_json h);
                     ])
                 sm_harts) );
          ( "round",
            Results.List
              (List.map
                 (fun (id, rem) -> Results.List [ jint id; jint rem ])
                 sm_round) );
          ("finished", jopt cpu_outcome_to_json sm_finished);
        ]
  | M_procs { pm_quantum; pm_next_pid; pm_procs; pm_round; pm_finished; pm_retired }
    ->
      Results.Obj
        [
          ("shape", jstr "procs");
          ("quantum", jint pm_quantum);
          ("next_pid", jint pm_next_pid);
          ( "procs",
            Results.List
              (List.map
                 (fun p ->
                   Results.Obj
                     [
                       ("pid", jint p.ps_pid);
                       ("parent", jint p.ps_parent);
                       ("image", jopt jstr p.ps_image);
                       ("state", proc_state_to_json p.ps_state);
                       ("hart", hart_to_json p.ps_hart);
                       ("memory", pages_to_json p.ps_mem);
                       ("provenance_pages", pages_to_json p.ps_prov);
                       ("ctx", ctx_to_json p.ps_ctx);
                     ])
                 pm_procs) );
          ( "round",
            Results.List
              (List.map
                 (fun (pid, rem) -> Results.List [ jint pid; jint rem ])
                 pm_round) );
          ("finished", jopt cpu_outcome_to_json pm_finished);
          ("retired", stats_to_json pm_retired);
        ]

let machine_of_json j =
  match sfield "shape" j with
  | "cpu" -> M_cpu (hart_of_json (field "hart" j))
  | "smp" ->
      M_smp
        {
          sm_quantum = ifield "quantum" j;
          sm_harts =
            as_list (field "harts" j)
            |> List.map (fun h ->
                   ( ifield "id" h,
                     hart_state_of_json (field "state" h),
                     hart_of_json (field "hart" h) ));
          sm_round =
            as_list (field "round" j)
            |> List.map (function
                 | Results.List [ id; rem ] -> (as_int id, as_int rem)
                 | _ -> bad "malformed round entry");
          sm_finished = as_opt cpu_outcome_of_json (field "finished" j);
        }
  | "procs" ->
      M_procs
        {
          pm_quantum = ifield "quantum" j;
          pm_next_pid = ifield "next_pid" j;
          pm_procs =
            as_list (field "procs" j)
            |> List.map (fun p ->
                   {
                     ps_pid = ifield "pid" p;
                     ps_parent = ifield "parent" p;
                     ps_image = as_opt as_string (field "image" p);
                     ps_state = proc_state_of_json (field "state" p);
                     ps_hart = hart_of_json (field "hart" p);
                     ps_mem = pages_of_json (field "memory" p);
                     ps_prov = pages_of_json (field "provenance_pages" p);
                     ps_ctx = ctx_of_json (field "ctx" p);
                   });
          pm_round =
            as_list (field "round" j)
            |> List.map (function
                 | Results.List [ pid; rem ] -> (as_int pid, as_int rem)
                 | _ -> bad "malformed round entry");
          pm_finished = as_opt cpu_outcome_of_json (field "finished" j);
          pm_retired = stats_of_json (field "retired" j);
        }
  | s -> bad "unknown machine shape %S" s

(* ---- flow ---- *)

let source_to_json (s : Flowtrace.source) =
  Results.Obj
    [
      ("sid", jint s.Flowtrace.sid);
      ("channel", jstr s.Flowtrace.channel);
      ("origin", jstr s.Flowtrace.origin);
      ("offset", jint s.Flowtrace.offset);
      ("len", jint s.Flowtrace.len);
    ]

let source_of_json j : Flowtrace.source =
  {
    Flowtrace.sid = ifield "sid" j;
    channel = sfield "channel" j;
    origin = sfield "origin" j;
    offset = ifield "offset" j;
    len = ifield "len" j;
  }

let detail_to_json (d : Flowtrace.detail) =
  Results.Obj
    (match d with
    | Flowtrace.Ev_birth { src; addr } ->
        [ ("t", jstr "birth"); ("src", source_to_json src); ("addr", j64 addr) ]
    | Flowtrace.Ev_load { reg; addr; id } ->
        [ ("t", jstr "load"); ("reg", jint reg); ("addr", j64 addr); ("id", jint id) ]
    | Flowtrace.Ev_prop { dst; src; id; depth } ->
        [
          ("t", jstr "prop");
          ("dst", jint dst);
          ("src", jint src);
          ("id", jint id);
          ("depth", jint depth);
        ]
    | Flowtrace.Ev_store { reg; addr; len; id } ->
        [
          ("t", jstr "store");
          ("reg", jint reg);
          ("addr", j64 addr);
          ("len", jint len);
          ("id", jint id);
        ]
    | Flowtrace.Ev_purge { reg } -> [ ("t", jstr "purge"); ("reg", jint reg) ]
    | Flowtrace.Ev_check { reg; tainted } ->
        [ ("t", jstr "check"); ("reg", jint reg); ("tainted", jbool tainted) ]
    | Flowtrace.Ev_sink { policy; detail } ->
        [ ("t", jstr "sink"); ("policy", jstr policy); ("detail", jstr detail) ])

let detail_of_json j : Flowtrace.detail =
  match sfield "t" j with
  | "birth" ->
      Flowtrace.Ev_birth
        { src = source_of_json (field "src" j); addr = i64field "addr" j }
  | "load" ->
      Flowtrace.Ev_load
        { reg = ifield "reg" j; addr = i64field "addr" j; id = ifield "id" j }
  | "prop" ->
      Flowtrace.Ev_prop
        {
          dst = ifield "dst" j;
          src = ifield "src" j;
          id = ifield "id" j;
          depth = ifield "depth" j;
        }
  | "store" ->
      Flowtrace.Ev_store
        {
          reg = ifield "reg" j;
          addr = i64field "addr" j;
          len = ifield "len" j;
          id = ifield "id" j;
        }
  | "purge" -> Flowtrace.Ev_purge { reg = ifield "reg" j }
  | "check" ->
      Flowtrace.Ev_check { reg = ifield "reg" j; tainted = bfield "tainted" j }
  | "sink" ->
      Flowtrace.Ev_sink
        { policy = sfield "policy" j; detail = sfield "detail" j }
  | s -> bad "unknown event type %S" s

let event_to_json (e : Flowtrace.event) =
  Results.Obj
    [
      ("seq", jint e.Flowtrace.seq);
      ("ip", jint e.Flowtrace.ip);
      ("ev", detail_to_json e.Flowtrace.ev);
    ]

let event_of_json j : Flowtrace.event =
  {
    Flowtrace.seq = ifield "seq" j;
    ip = ifield "ip" j;
    ev = detail_of_json (field "ev" j);
  }

let flow_to_json (d : Flowtrace.dump) pages =
  Results.Obj
    [
      ("enabled", jbool d.Flowtrace.d_enabled);
      ("capacity", jint d.Flowtrace.d_capacity);
      ("keep", jbits d.Flowtrace.d_keep);
      ("count", jint d.Flowtrace.d_count);
      ("window", Results.List (List.map event_to_json d.Flowtrace.d_window));
      ("sources", Results.List (List.map source_to_json d.Flowtrace.d_sources));
      ("next_id", jint d.Flowtrace.d_next_id);
      ( "spec",
        Results.List
          (List.map
             (fun (ip, sid) -> Results.List [ jint ip; jint sid ])
             d.Flowtrace.d_spec) );
      ("births", jint d.Flowtrace.d_births);
      ("propagations", jint d.Flowtrace.d_propagations);
      ("purges", jint d.Flowtrace.d_purges);
      ("checks", jint d.Flowtrace.d_checks);
      ("sink_hits", jint d.Flowtrace.d_sink_hits);
      ("max_depth", jint d.Flowtrace.d_max_depth);
      ("provenance_pages", pages_to_json pages);
    ]

let flow_of_json j =
  let d =
    {
      Flowtrace.d_enabled = bfield "enabled" j;
      d_capacity = ifield "capacity" j;
      d_keep = as_bits (field "keep" j);
      d_count = ifield "count" j;
      d_window = as_list (field "window" j) |> List.map event_of_json;
      d_sources = as_list (field "sources" j) |> List.map source_of_json;
      d_next_id = ifield "next_id" j;
      d_spec =
        as_list (field "spec" j)
        |> List.map (function
             | Results.List [ ip; sid ] -> (as_int ip, as_int sid)
             | _ -> bad "malformed spec-source entry");
      d_births = ifield "births" j;
      d_propagations = ifield "propagations" j;
      d_purges = ifield "purges" j;
      d_checks = ifield "checks" j;
      d_sink_hits = ifield "sink_hits" j;
      d_max_depth = ifield "max_depth" j;
    }
  in
  (d, pages_of_json (field "provenance_pages" j))

(* ---- tag-coprocessor state ---- *)

let tracking_record_to_json (r : Tracking.record) =
  Results.Obj
    (match r with
    | Tracking.Set { dst; tainted } ->
        [ ("op", jstr "set"); ("dst", jint dst); ("tainted", jbool tainted) ]
    | Tracking.Move { dst; src } ->
        [ ("op", jstr "move"); ("dst", jint dst); ("src", jint src) ]
    | Tracking.Union { dst; s1; s2 } ->
        [ ("op", jstr "union"); ("dst", jint dst); ("s1", jint s1); ("s2", jint s2) ]
    | Tracking.Load { dst; addr; len } ->
        [ ("op", jstr "load"); ("dst", jint dst); ("addr", j64 addr); ("len", jint len) ]
    | Tracking.Store { addr; len; src } ->
        [ ("op", jstr "store"); ("addr", j64 addr); ("len", jint len); ("src", jint src) ]
    | Tracking.Check { what; reg } ->
        [
          ("op", jstr "check");
          ("what", jstr (Tracking.check_to_string what));
          ("reg", jint reg);
        ])

let tracking_record_of_json j : Tracking.record =
  match sfield "op" j with
  | "set" -> Tracking.Set { dst = ifield "dst" j; tainted = as_bool (field "tainted" j) }
  | "move" -> Tracking.Move { dst = ifield "dst" j; src = ifield "src" j }
  | "union" ->
      Tracking.Union { dst = ifield "dst" j; s1 = ifield "s1" j; s2 = ifield "s2" j }
  | "load" ->
      Tracking.Load
        { dst = ifield "dst" j; addr = as_i64 (field "addr" j); len = ifield "len" j }
  | "store" ->
      Tracking.Store
        { addr = as_i64 (field "addr" j); len = ifield "len" j; src = ifield "src" j }
  | "check" -> (
      match Tracking.check_of_string (sfield "what" j) with
      | Some what -> Tracking.Check { what; reg = ifield "reg" j }
      | None -> bad "unknown check kind %S" (sfield "what" j))
  | op -> bad "unknown tag record %S" op

let tracking_to_json (d : Tracking.dump) =
  Results.Obj
    [
      ("regs", jbits d.Tracking.d_regs);
      ( "queue",
        Results.List
          (List.map
             (fun (r, at) ->
               Results.Obj
                 [ ("record", tracking_record_to_json r); ("at", jint at) ])
             d.Tracking.d_queue) );
      ("retired", jint d.Tracking.d_retired);
      ("pending_stall", jint d.Tracking.d_pending_stall);
    ]

let tracking_of_json j : Tracking.dump =
  {
    Tracking.d_regs = as_bits (field "regs" j);
    d_queue =
      List.map
        (fun e -> (tracking_record_of_json (field "record" e), ifield "at" e))
        (as_list (field "queue" j));
    d_retired = ifield "retired" j;
    d_pending_stall = ifield "pending_stall" j;
  }

(* ---- the envelope ---- *)

let to_json t =
  Results.Obj
    ([
       ("snapshot_version", jint version);
       ("kind", jstr "shift-snapshot");
       ("meta", Results.Obj (List.map (fun (k, v) -> (k, jstr v)) t.meta));
       ("config", config_to_json t.config);
       ("fuel_left", jint t.fuel_left);
       ("result", jopt outcome_to_json t.result);
       ("image", jstr (hex_encode (Marshal.to_string t.image [])));
       ("memory", pages_to_json t.memory);
       ("machine", machine_to_json t.machine);
       ("world", world_to_json t.world);
       ("flow", jopt (fun (d, pages) -> flow_to_json d pages) t.flow);
     ]
    (* appended only for the coproc backend: nat snapshots keep the
       exact envelope of earlier versions *)
    @
    match t.tracking with
    | None -> []
    | Some d -> [ ("tracking", tracking_to_json d) ])

(* A restored hart resumes at its [ip] and later returns to every
   call-stack target, so each must lie in the program it runs, or at its
   end: [ip = size] is where a program that runs off its last
   instruction stands, and it faults on the next step.  Anything further
   out was never produced by a run and is refused here rather than
   surfacing as a guest fault after the restore. *)
let check_targets ~(image : Image.t) ~config machine =
  let check ~what (program : Shift_isa.Program.t) h =
    let size = Shift_isa.Program.size program in
    if h.h_ip < 0 || h.h_ip > size then
      bad "%s: ip %d outside the program (0..%d)" what h.h_ip size;
    List.iter
      (fun (ret, _) ->
        if ret < 0 || ret > size then
          bad "%s: call-stack return target %d outside the program (0..%d)" what
            ret size)
      h.h_call_stack
  in
  match machine with
  | M_cpu h -> check ~what:"hart" image.Image.program h
  | M_smp { sm_harts; _ } ->
      List.iter
        (fun (id, _, h) -> check ~what:(Printf.sprintf "hart %d" id) image.Image.program h)
        sm_harts
  | M_procs { pm_procs; _ } ->
      List.iter
        (fun p ->
          let what = Printf.sprintf "process %d" p.ps_pid in
          let program =
            match p.ps_image with
            | None -> image.Image.program
            | Some name -> (
                match List.assoc_opt name config.c_images with
                | Some (img : Image.t) -> img.Image.program
                | None -> bad "%s runs unknown image %S" what name)
          in
          check ~what program p.ps_hart)
        pm_procs

let of_json j =
  try
    (match Results.member "kind" j with
    | Some (Results.String "shift-snapshot") -> ()
    | _ -> bad "not a shift snapshot");
    let v = ifield "snapshot_version" j in
    if v <> version then bad "unsupported snapshot version %d (expected %d)" v version;
    let meta =
      match field "meta" j with
      | Results.Obj fields -> List.map (fun (k, v) -> (k, as_string v)) fields
      | _ -> bad "malformed meta"
    in
    let image : Image.t =
      try Marshal.from_string (hex_decode (sfield "image" j)) 0
      with Failure _ -> bad "corrupt embedded image"
    in
    let config = config_of_json (field "config" j) in
    let machine = machine_of_json (field "machine" j) in
    check_targets ~image ~config machine;
    Ok
      {
        meta;
        image;
        config;
        fuel_left = ifield "fuel_left" j;
        result = as_opt outcome_of_json (field "result" j);
        memory = pages_of_json (field "memory" j);
        machine;
        world = world_of_json (field "world" j);
        flow = as_opt flow_of_json (field "flow" j);
        tracking =
          (match Results.member "tracking" j with
          | Some v -> Some (tracking_of_json v)
          | None -> None);
      }
  with Bad msg -> Error msg

let save path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Results.to_string (to_json t));
      output_char oc '\n');
  Sys.rename tmp path

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text -> (
      match Results.of_string text with
      | Error msg -> Error ("invalid JSON: " ^ msg)
      | Ok j -> of_json j)
