(* One run's outcome: printed as a human table, as the one-line JSON
   summary a harness reads (always the last line of
   stdout), and optionally appended to a JSONL result file that
   [compare] reads back. *)

type t = {
  workload : string;
  mode : string;  (** "run" or "trace" *)
  seed : int;
  scale : string;
  attempted : int;
  failed : int;
  sim_digest : string;
      (** digest over [Experiment.pp_result] of pass 0's experiments:
          fixed by the seed, so it must match across commits *)
  metrics : (string * float) list;
  notes : (string * string) list;  (** sample counts and the like *)
}

let correct o = o.failed = 0 && o.attempted > 0

let expected mode = if String.equal mode "trace" then Metric.per_layer else Metric.end_to_end

(* Declared metrics the outcome lacks, or carries but never declared. *)
let missing o =
  let declared = List.map (fun (m : Metric.t) -> m.Metric.name) (expected o.mode) in
  let got = List.map fst o.metrics in
  List.filter (fun n -> not (List.mem n got)) declared
  @ List.filter (fun n -> not (List.mem n declared)) got

let metrics_json o =
  Json.Obj
    (List.map
       (fun (name, v) ->
         (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (Metric.find name).Metric.unit_) ]))
       o.metrics)

let summary_line o =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (correct o));
         ("attempted", Json.Num (float_of_int o.attempted));
         ("failed", Json.Num (float_of_int o.failed));
         ("metrics", metrics_json o);
       ])

let record_line o =
  Json.to_string
    (Json.Obj
       [
         ("workload", Json.Str o.workload);
         ("mode", Json.Str o.mode);
         ("seed", Json.Num (float_of_int o.seed));
         ("scale", Json.Str o.scale);
         ("correct", Json.Bool (correct o));
         ("attempted", Json.Num (float_of_int o.attempted));
         ("failed", Json.Num (float_of_int o.failed));
         ("sim_digest", Json.Str o.sim_digest);
         ("host", Host.facts ());
         ("notes", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) o.notes));
         ("metrics", metrics_json o);
       ])

let print o =
  Printf.printf "%s %s  seed %d  scale %s\n" o.mode o.workload o.seed o.scale;
  List.iter (fun (k, v) -> Printf.printf "  %-30s %s\n" k v) o.notes;
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-34s %16.4f %s\n" name v (Metric.find name).Metric.unit_)
    o.metrics;
  Printf.printf "  %-30s %s\n" "sim_digest" o.sim_digest;
  Printf.printf "  %-30s %s\n" "host" (Json.to_string (Host.facts ()));
  Printf.printf "  attempted %d, failed %d\n" o.attempted o.failed

let append path o =
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_creat; Open_text ] 0o644 path
    (fun oc -> output_string oc (record_line o ^ "\n"))

let digest_of_results results =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (Format.asprintf "%a" Sdn_core.Experiment.pp_result) results)))
