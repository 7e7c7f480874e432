(* Facts about the host a result was measured on, recorded in every
   result line so numbers from different machines are never compared
   blind. *)

let proc_status_field field =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      List.find_map
        (fun line ->
          match String.index_opt line ':' with
          | Some i when String.equal (String.sub line 0 i) field ->
              let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
              (* "123456 kB" *)
              Option.bind (List.nth_opt (String.split_on_char ' ' v) 0) float_of_string_opt
          | Some _ | None -> None)
        (String.split_on_char '\n' text)

(* Peak resident set: the kernel's high-water mark, which also counts
   off-heap Bigarrays the OCaml GC does not see. *)
let peak_rss_mb () =
  match proc_status_field "VmHWM" with
  | Some kb -> kb /. 1024.0
  | None -> failwith "peak_rss_mb: /proc/self/status has no VmHWM (Linux only)"

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
      let line = In_channel.input_line ic in
      ignore (Unix.close_process_in ic);
      Option.value ~default:"unknown" (Option.map String.trim line)

let facts () =
  Json.Obj
    [
      ("nproc", Json.Str (nproc ()));
      ("recommended_domain_count", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("ocamlrunparam", Json.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
    ]
