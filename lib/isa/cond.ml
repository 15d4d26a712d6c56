type t = Eq | Ne | Lt | Le | Gt | Ge | Ltu | Leu | Gtu | Geu

(* The condition over the results of a signed and an unsigned
   three-way comparison: plain [int]s, so the instruction engines can
   compare register values in place and never box them to call here. *)
let holds c ~signed ~unsigned =
  match c with
  | Eq -> signed = 0
  | Ne -> signed <> 0
  | Lt -> signed < 0
  | Le -> signed <= 0
  | Gt -> signed > 0
  | Ge -> signed >= 0
  | Ltu -> unsigned < 0
  | Leu -> unsigned <= 0
  | Gtu -> unsigned > 0
  | Geu -> unsigned >= 0

let eval c a b = holds c ~signed:(Int64.compare a b) ~unsigned:(Int64.unsigned_compare a b)

let negate = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt
  | Ltu -> Geu
  | Leu -> Gtu
  | Gtu -> Leu
  | Geu -> Ltu

let swap = function
  | Eq -> Eq
  | Ne -> Ne
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le
  | Ltu -> Gtu
  | Leu -> Geu
  | Gtu -> Ltu
  | Geu -> Leu

let all = [ Eq; Ne; Lt; Le; Gt; Ge; Ltu; Leu; Gtu; Geu ]

let to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Ltu -> "ltu"
  | Leu -> "leu"
  | Gtu -> "gtu"
  | Geu -> "geu"

let pp ppf c = Format.pp_print_string ppf (to_string c)
