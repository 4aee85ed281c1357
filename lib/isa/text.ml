type image = {
  base : int;
  code : Code.t;
}

type t = {
  mutable images : image array;  (* ascending by base *)
  mutable next_base : int;
}

let text_base = 0x4000_0000
let align n = (n + 0xFFF) land lnot 0xFFF

let none =
  { base = -1;
    code = Code.make ~arch:Arch.sparc ~code_oid:0l ~class_name:"" ~methods:[||] [||] }

let create () = { images = [||]; next_base = text_base }

let find_by_oid t oid =
  Array.find_opt (fun img -> Int32.equal img.code.Code.code_oid oid) t.images

(* bases only grow, so a new image appends and the array stays sorted *)
let load t code =
  match find_by_oid t code.Code.code_oid with
  | Some img -> img
  | None ->
    let img = { base = t.next_base; code } in
    t.next_base <- align (t.next_base + code.Code.byte_size + 16);
    t.images <- Array.append t.images [| img |];
    img

(* bisect for the last image based at or below [addr] *)
let find t addr =
  let images = t.images in
  let lo = ref 0 and hi = ref (Array.length images) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if images.(mid).base <= addr then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then none
  else
    let img = images.(!lo - 1) in
    if addr < img.base + img.code.Code.byte_size then img else none
