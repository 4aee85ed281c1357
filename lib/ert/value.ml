type t =
  | Vint of int32
  | Vreal of float
  | Vbool of bool
  | Vstr of string
  | Vref of Oid.t
  | Vvec of Emc.Ast.typ * t array
  | Vnil

let rec equal a b =
  match a, b with
  | Vint x, Vint y -> Int32.equal x y
  | Vreal x, Vreal y -> Float.equal x y
  | Vbool x, Vbool y -> Bool.equal x y
  | Vstr x, Vstr y -> String.equal x y
  | Vref x, Vref y -> Oid.equal x y
  | Vvec (tx, xs), Vvec (ty, ys) ->
    Emc.Ast.typ_equal tx ty
    && Array.length xs = Array.length ys
    && Array.for_all2 equal xs ys
  | Vnil, Vnil -> true
  | (Vint _ | Vreal _ | Vbool _ | Vstr _ | Vref _ | Vvec _ | Vnil), _ -> false

let of_word (w : Isa.Suspend.word) bits =
  match w with
  | Isa.Suspend.Wint -> Vint (Int32.of_int bits)
  | Isa.Suspend.Wbool -> Vbool (bits <> 0)
  | Isa.Suspend.Wref -> Vref (Int32.of_int bits)

let rec pp ppf = function
  | Vint v -> Format.fprintf ppf "%ld" v
  | Vreal v -> Format.fprintf ppf "%g" v
  | Vbool v -> Format.fprintf ppf "%b" v
  | Vstr v -> Format.fprintf ppf "%S" v
  | Vref oid -> Oid.pp ppf oid
  | Vvec (_, xs) ->
    Format.fprintf ppf "vector[%a]"
      (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") pp)
      (Array.to_seq xs)
  | Vnil -> Format.pp_print_string ppf "nil"

let tag_int = 1
let tag_real = 2
let tag_bool = 3
let tag_str = 4
let tag_ref = 5
let tag_nil = 6
let tag_vec = 7

let write_typ w (t : Emc.Ast.typ) =
  let rec go t =
    match t with
    | Emc.Ast.Tint -> Enet.Wire.Writer.u8 w 1
    | Emc.Ast.Treal -> Enet.Wire.Writer.u8 w 2
    | Emc.Ast.Tbool -> Enet.Wire.Writer.u8 w 3
    | Emc.Ast.Tstring -> Enet.Wire.Writer.u8 w 4
    | Emc.Ast.Tnil -> Enet.Wire.Writer.u8 w 5
    | Emc.Ast.Tobj name ->
      Enet.Wire.Writer.u8 w 6;
      Enet.Wire.Writer.str w name
    | Emc.Ast.Tvec e ->
      Enet.Wire.Writer.u8 w 7;
      go e
  in
  go t

let read_typ r : Emc.Ast.typ =
  let rec go () =
    match Enet.Wire.Reader.u8 r with
    | 1 -> Emc.Ast.Tint
    | 2 -> Emc.Ast.Treal
    | 3 -> Emc.Ast.Tbool
    | 4 -> Emc.Ast.Tstring
    | 5 -> Emc.Ast.Tnil
    | 6 -> Emc.Ast.Tobj (Enet.Wire.Reader.str r)
    | 7 -> Emc.Ast.Tvec (go ())
    | n -> failwith (Printf.sprintf "Value.read_typ: corrupt tag %d" n)
  in
  go ()

let rec write w v =
  match v with
  | Vint x ->
    Enet.Wire.Writer.u8 w tag_int;
    Enet.Wire.Writer.i32 w x
  | Vreal x ->
    Enet.Wire.Writer.u8 w tag_real;
    Enet.Wire.Writer.f64 w x
  | Vbool x ->
    Enet.Wire.Writer.u8 w tag_bool;
    Enet.Wire.Writer.bool w x
  | Vstr x ->
    Enet.Wire.Writer.u8 w tag_str;
    Enet.Wire.Writer.str w x
  | Vref oid ->
    Enet.Wire.Writer.u8 w tag_ref;
    Enet.Wire.Writer.u32 w oid
  | Vvec (ty, xs) ->
    Enet.Wire.Writer.u8 w tag_vec;
    write_typ w ty;
    Enet.Wire.Writer.u16 w (Array.length xs);
    Array.iter (write w) xs
  | Vnil -> Enet.Wire.Writer.u8 w tag_nil

let rec read r = read_tagged r (Enet.Wire.Reader.u8 r)

and read_tagged r tag =
  if tag = tag_int then Vint (Enet.Wire.Reader.i32 r)
  else if tag = tag_real then Vreal (Enet.Wire.Reader.f64 r)
  else if tag = tag_bool then Vbool (Enet.Wire.Reader.bool r)
  else if tag = tag_str then Vstr (Enet.Wire.Reader.str r)
  else if tag = tag_ref then Vref (Enet.Wire.Reader.u32 r)
  else if tag = tag_vec then begin
    let ty = read_typ r in
    let n = Enet.Wire.Reader.u16 r in
    Vvec (ty, Array.init n (fun _ -> read r))
  end
  else if tag = tag_nil then Vnil
  else failwith (Printf.sprintf "Value.read: corrupt tag %d" tag)
