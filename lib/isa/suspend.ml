(* The one suspension type shared by the virtual CPU, the kernel's
   run queue and the machine-independent wire format.  See suspend.mli
   for the invariant table. *)

type trap =
  | Div_zero
  | Nil_deref
  | Mem_fault of int
  | Float_reserved of string
  | Stack_overflow
  | Bad_pc of int
  | Bad_insn of string

type word =
  | Wint
  | Wbool
  | Wref

type 'v t =
  | Run
  | Poll
  | Syscall of int
  | Bottom_return
  | Halt
  | Trap of trap
  | Fuel
  | Deliver of 'v
  | Complete of 'v option
  | Complete_dequeue of int option
  | Complete_word of word * int

let pp_trap ppf = function
  | Div_zero -> Format.pp_print_string ppf "division by zero"
  | Nil_deref -> Format.pp_print_string ppf "nil dereference"
  | Mem_fault a -> Format.fprintf ppf "memory fault at %#x" a
  | Float_reserved m -> Format.fprintf ppf "reserved float operand (%s)" m
  | Stack_overflow -> Format.pp_print_string ppf "stack overflow"
  | Bad_pc a -> Format.fprintf ppf "bad PC %#x" a
  | Bad_insn m -> Format.fprintf ppf "illegal instruction (%s)" m

let pp ?value ppf s =
  let pv ppf v =
    match value with
    | Some f -> f ppf v
    | None -> Format.pp_print_string ppf "<value>"
  in
  match s with
  | Run -> Format.pp_print_string ppf "run"
  | Poll -> Format.pp_print_string ppf "poll"
  | Syscall n -> Format.fprintf ppf "syscall %d" n
  | Bottom_return -> Format.pp_print_string ppf "segment-bottom return"
  | Halt -> Format.pp_print_string ppf "halt"
  | Trap t -> Format.fprintf ppf "trap: %a" pp_trap t
  | Fuel -> Format.pp_print_string ppf "out of fuel"
  | Deliver v -> Format.fprintf ppf "deliver %a" pv v
  | Complete None -> Format.pp_print_string ppf "complete syscall"
  | Complete (Some v) -> Format.fprintf ppf "complete syscall (%a)" pv v
  | Complete_dequeue None -> Format.pp_print_string ppf "complete dequeue (empty)"
  | Complete_dequeue (Some s) -> Format.fprintf ppf "complete dequeue (waiter %d)" s
  | Complete_word (_, w) -> Format.fprintf ppf "complete syscall (word %d)" w
