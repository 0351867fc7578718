type result = {
  findings : Finding.t list;
  notes : Finding.t list;
  errors : string list;
  warnings : string list;
  files_scanned : int;
}

let normalize path =
  let path =
    String.concat "/" (String.split_on_char '\\' path)
  in
  if String.starts_with ~prefix:"./" path then
    String.sub path 2 (String.length path - 2)
  else path

let rec add_tree acc path =
  match Sys.is_directory path with
  | exception Sys_error _ -> acc
  | true ->
      Sys.readdir path |> Array.to_list
      |> List.sort String.compare
      |> List.fold_left
           (fun acc name ->
             if name = "" || name.[0] = '.' || name = "_build" then acc
             else add_tree acc (path ^ "/" ^ name))
           acc
  | false -> if Filename.check_suffix path ".ml" then path :: acc else acc

(* ------------------------------------------------------------------ *)
(* The two-phase run *)

let analyze_file file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error m -> Error m
  | source -> Engine.analyze ~file source

let run ?(allowlist = Allowlist.empty) paths =
  let paths = List.map normalize paths in
  let warnings =
    List.filter_map
      (fun p ->
        if not (Sys.file_exists p) then
          Some (Printf.sprintf "warning: path does not exist: %s" p)
        else if add_tree [] p = [] then
          Some (Printf.sprintf "warning: no .ml files under %s" p)
        else None)
      paths
  in
  (* Sorted and deduplicated, so overlapping or reordered path
     arguments give the same report. *)
  let files =
    List.fold_left add_tree [] paths |> List.sort_uniq String.compare
  in
  (* Phase 1: per-file findings and summaries, in sorted-file order. *)
  let per_file = List.map analyze_file files in
  let analyses = List.filter_map Result.to_option per_file in
  let errors =
    List.filter_map (function Error m -> Some m | Ok _ -> None) per_file
  in
  (* Phase 2: link the summaries and run the reachability rules. *)
  let reach_findings, reach_notes =
    Reach.check
      (Callgraph.build
         (List.map (fun (a : Engine.analysis) -> a.summary) analyses))
  in
  let phase1_findings =
    List.concat_map (fun (a : Engine.analysis) -> a.findings) analyses
  in
  let visible fs =
    fs
    |> List.filter (fun f -> not (Allowlist.permits allowlist f))
    |> List.sort Finding.order
  in
  { findings = visible (phase1_findings @ reach_findings);
    notes = visible reach_notes;
    errors;
    warnings;
    files_scanned = List.length files }

(* ------------------------------------------------------------------ *)
(* Reports *)

let report_text r =
  let b = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string b (Format.asprintf "%a" Finding.pp f);
      Buffer.add_char b '\n')
    r.findings;
  List.iter
    (fun f ->
      Buffer.add_string b (Format.asprintf "note: %a" Finding.pp f);
      Buffer.add_char b '\n')
    r.notes;
  Buffer.contents b

let report_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"version\":2,\"files_scanned\":%d,\"count\":%d,\"findings\":["
       r.files_scanned
       (List.length r.findings));
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Finding.to_json f))
    r.findings;
  Buffer.add_string b "],\"notes\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Finding.to_json f))
    r.notes;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* SARIF 2.1.0: findings at level "error", cannot-prove notes at level
   "note"; columns are 1-based there, unlike compiler diagnostics. *)
let report_sarif r =
  let b = Buffer.create 4096 in
  let esc = Finding.json_escape in
  Buffer.add_string b
    "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
     \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\
     \"name\":\"hydra_lint\",\"rules\":[";
  List.iteri
    (fun i (m : Rules.meta) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"id\":\"%s\",\"shortDescription\":{\"text\":\"%s\"},\
            \"fullDescription\":{\"text\":\"%s\"}}"
           (esc m.id) (esc m.title) (esc m.rationale)))
    Rules.all;
  Buffer.add_string b "]}},\"results\":[";
  let emit i level (f : Finding.t) =
    if i > 0 then Buffer.add_char b ',';
    Buffer.add_string b
      (Printf.sprintf
         "{\"ruleId\":\"%s\",\"level\":\"%s\",\"message\":{\"text\":\"%s\"},\
          \"locations\":[{\"physicalLocation\":{\"artifactLocation\":\
          {\"uri\":\"%s\"},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}]}"
         (esc f.rule) level (esc f.msg) (esc f.file) f.line (f.col + 1))
  in
  List.iteri (fun i f -> emit i "error" f) r.findings;
  List.iteri
    (fun i f -> emit (i + List.length r.findings) "note" f)
    r.notes;
  Buffer.add_string b "]}]}\n";
  Buffer.contents b
