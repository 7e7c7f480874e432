type t = int (* low 48 bits *)

let mask = 0xFFFF_FFFF_FFFF

let of_int64 x = Int64.to_int x land mask

let to_int64 t = Int64.of_int t
let to_int t = t

let of_octets a b c d e f =
  let check o =
    if o < 0 || o > 255 then invalid_arg "Mac.of_octets: octet out of range"
  in
  check a; check b; check c; check d; check e; check f;
  (a lsl 40) lor (b lsl 32) lor (c lsl 24) lor (d lsl 16) lor (e lsl 8) lor f

let octet t i =
  (* i = 0 is the most significant octet. *)
  (t lsr (8 * (5 - i))) land 0xFF

let to_string t =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" (octet t 0) (octet t 1)
    (octet t 2) (octet t 3) (octet t 4) (octet t 5)

let of_string s =
  let octet part =
    match int_of_string_opt ("0x" ^ part) with
    | Some o when o >= 0 && o <= 255 -> Ok o
    | Some _ ->
        Error (Printf.sprintf "Mac.of_string: octet out of range in %S" s)
    | None -> Error (Printf.sprintf "Mac.of_string: bad octet in %S" s)
  in
  match String.split_on_char ':' s with
  | [ a; b; c; d; e; f ] -> (
      match (octet a, octet b, octet c, octet d, octet e, octet f) with
      | Ok a, Ok b, Ok c, Ok d, Ok e, Ok f -> Ok (of_octets a b c d e f)
      | Error e, _, _, _, _, _
      | _, Error e, _, _, _, _
      | _, _, Error e, _, _, _
      | _, _, _, Error e, _, _
      | _, _, _, _, Error e, _
      | _, _, _, _, _, Error e ->
          Error e)
  | _ -> Error (Printf.sprintf "Mac.of_string: expected 6 octets in %S" s)

let of_string_exn s =
  match of_string s with Ok t -> t | Error msg -> invalid_arg msg

let broadcast = mask

let zero = 0

let is_broadcast t = Int.equal t broadcast

let compare = Int.compare
let equal = Int.equal
let hash t = t

let pp fmt t = Format.pp_print_string fmt (to_string t)

let write t buf off =
  Bytes.set_uint16_be buf off (t lsr 32);
  Bytes.set_uint16_be buf (off + 2) ((t lsr 16) land 0xFFFF);
  Bytes.set_uint16_be buf (off + 4) (t land 0xFFFF)

let read buf off =
  (Bytes.get_uint16_be buf off lsl 32)
  lor (Bytes.get_uint16_be buf (off + 2) lsl 16)
  lor Bytes.get_uint16_be buf (off + 4)
