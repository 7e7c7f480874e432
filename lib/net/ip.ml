type t = int32

let of_int32 x = x
let to_int32 t = t

let make a b c d =
  let check o =
    if o < 0 || o > 255 then invalid_arg "Ip.make: component out of range"
  in
  check a; check b; check c; check d;
  let ( << ) x n = Int32.shift_left (Int32.of_int x) n in
  List.fold_left Int32.logor 0l [ a << 24; b << 16; c << 8; d << 0 ]

let component t i =
  Int32.to_int (Int32.logand (Int32.shift_right_logical t (8 * (3 - i))) 0xFFl)

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" (component t 0) (component t 1) (component t 2)
    (component t 3)

let of_string s =
  let component part =
    match int_of_string_opt part with
    | Some o when o >= 0 && o <= 255 -> Ok o
    | Some _ ->
        Error (Printf.sprintf "Ip.of_string: component out of range in %S" s)
    | None -> Error (Printf.sprintf "Ip.of_string: bad component in %S" s)
  in
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      match (component a, component b, component c, component d) with
      | Ok a, Ok b, Ok c, Ok d -> Ok (make a b c d)
      | Error e, _, _, _
      | _, Error e, _, _
      | _, _, Error e, _
      | _, _, _, Error e ->
          Error e)
  | _ -> Error (Printf.sprintf "Ip.of_string: expected dotted quad in %S" s)

let of_string_exn s =
  match of_string s with Ok t -> t | Error msg -> invalid_arg msg

let any = 0l

(* Unsigned 32-bit comparison. *)
let compare a b =
  Int32.unsigned_compare a b

let equal = Int32.equal
let hash t = Int32.to_int t land max_int
let pp fmt t = Format.pp_print_string fmt (to_string t)

let write t buf off = Bytes.set_int32_be buf off t
let read buf off = Bytes.get_int32_be buf off

let matches_prefix ~prefix ~bits addr =
  if bits < 0 || bits > 32 then invalid_arg "Ip.matches_prefix: bits";
  if bits = 0 then true
  else begin
    let shift = 32 - bits in
    Int32.equal
      (Int32.shift_right_logical prefix shift)
      (Int32.shift_right_logical addr shift)
  end
