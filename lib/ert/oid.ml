type t = int32

let nil = 0l
let data_bit = 0x4000_0000l
let is_data oid = Int32.logand oid data_bit <> 0l
let is_code oid = (not (is_data oid)) && not (Int32.equal oid nil)

(* data-OID layout: bit 30 the space tag, bits 18-29 the creating node
   (up to 4096 nodes), bits 0-17 the per-node serial.  Node-major, so
   Int32 order sorts by creator then age — the property the location
   directory's range splits and the dense tables rely on. *)
let max_nodes = 4096
let serial_bits = 18
let max_serial = 1 lsl serial_bits

let fresh_data ~node_id ~serial =
  if node_id < 0 || node_id >= max_nodes then
    invalid_arg "Oid.fresh_data: node id out of range";
  if serial < 0 || serial >= max_serial then
    invalid_arg "Oid.fresh_data: serial overflow";
  Int32.logor data_bit (Int32.of_int ((node_id lsl serial_bits) lor serial))

let creator_node oid =
  if is_data oid then
    Some (Int32.to_int (Int32.shift_right_logical oid serial_bits) land (max_nodes - 1))
  else None

let serial oid = Int32.to_int oid land (max_serial - 1)
let equal = Int32.equal
let compare = Int32.compare

(* the plain-int image preserves the Int32 order.  Bit 31 is never set
   in a data or code OID (code OIDs are 30-bit, the data tag is bit 30),
   so their images are non-negative; a bridge fragment's code OID is
   negative.  Comparisons on it are immediate-int compares, free of
   both boxing and polymorphic dispatch *)
let intern = Int32.to_int

let to_string oid =
  if Int32.equal oid nil then "nil"
  else if is_data oid then
    Printf.sprintf "obj:%d.%d"
      (Option.value (creator_node oid) ~default:0)
      (serial oid)
  else Printf.sprintf "code:%lx" oid

let pp ppf oid = Format.pp_print_string ppf (to_string oid)
