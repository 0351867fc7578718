(* hydra_lint: the determinism & domain-safety static-analysis gate
   (doc/STATIC_ANALYSIS.md). Parses every .ml under the given paths
   with compiler-libs, checks the intraprocedural rules D1-D6, then
   links per-module summaries into a whole-program call graph for the
   interprocedural rules D7 (pool-closure races) and D8 (transitive
   hot-path allocation). Exit 0 = clean, 1 = findings, 2 =
   read/parse/usage errors; "cannot prove" notes and warnings never
   affect the exit code. Wired as [dune build @lint] by the root dune
   file. *)

let usage =
  "hydra_lint [--format text|json|sarif] [--allowlist FILE] [--out FILE]\n\
  \           [--jobs N] [--cache-dir DIR] [--changed-only] [--list-rules]\n\
  \           [PATH...]\n\
   Lint .ml sources for determinism and domain-safety (rules D1-D8).\n\
   PATH defaults to: lib bin test/oracle test/drive"

(* Lines of a shell command, or None if it failed — the --changed-only
   helpers must degrade to a full scan, never to an error. *)
let command_lines cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception _ -> None
  | ic -> (
      let rec go acc =
        match In_channel.input_line ic with
        | Some l -> go (l :: acc)
        | None -> List.rev acc
      in
      let lines = go [] in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Some lines
      | _ -> None)

(* Changed .ml files relative to [git merge-base HEAD origin/main]:
   committed changes on the branch, plus working-tree edits, plus
   untracked files. None = git unavailable / not a repo / no
   origin/main — caller falls back to the full scan. *)
let changed_ml_files () =
  match command_lines "git merge-base HEAD origin/main" with
  | Some [ base ] ->
      let committed =
        command_lines (Printf.sprintf "git diff --name-only %s HEAD" base)
      in
      let unstaged = command_lines "git diff --name-only HEAD" in
      let untracked = command_lines "git ls-files --others --exclude-standard" in
      (match (committed, unstaged, untracked) with
      | Some a, Some b, Some c ->
          Some
            (a @ b @ c
            |> List.filter (fun f ->
                   Filename.check_suffix f ".ml" && Sys.file_exists f)
            |> List.sort_uniq String.compare)
      | _ -> None)
  | _ -> None

let () =
  let format = ref "text" in
  let allowlist_file = ref None in
  let out_file = ref None in
  let list_rules = ref false in
  let jobs = ref None in
  let cache_dir = ref None in
  let changed_only = ref false in
  let paths = ref [] in
  let spec =
    [ ( "--format",
        Arg.Symbol ([ "text"; "json"; "sarif" ], fun s -> format := s),
        " report format on stdout (default text)" );
      ( "--allowlist",
        Arg.String (fun s -> allowlist_file := Some s),
        "FILE checked-in suppression file (RULE PATH[:LINE] per line)" );
      ( "--out",
        Arg.String (fun s -> out_file := Some s),
        "FILE also write the JSON report to FILE" );
      ( "--jobs",
        Arg.Int (fun n -> jobs := Some n),
        "N lint files on N domains (default: cores - 1; output is \
         byte-identical for every N)" );
      ( "--cache-dir",
        Arg.String (fun s -> cache_dir := Some s),
        "DIR reuse per-file results from DIR/.lint-cache (content-digest \
         keyed; safe to delete anytime)" );
      ( "--changed-only",
        Arg.Set changed_only,
        " lint only files changed since `git merge-base HEAD origin/main` \
         (falls back to a full scan when git is unavailable)" );
      ( "--list-rules",
        Arg.Set list_rules,
        " print the rule catalog and exit" ) ]
  in
  Arg.parse (Arg.align spec) (fun p -> paths := p :: !paths) usage;
  if !list_rules then begin
    Lint.Rules.pp_catalog Format.std_formatter ();
    exit 0
  end;
  let paths =
    match List.rev !paths with
    | [] -> [ "lib"; "bin"; "test/oracle"; "test/drive" ]
    | ps -> ps
  in
  let allowlist =
    match !allowlist_file with
    | None -> Lint.Allowlist.empty
    | Some file -> (
        match Lint.Allowlist.load file with
        | Ok t -> t
        | Error m ->
            Printf.eprintf "hydra_lint: bad allowlist: %s\n" m;
            exit 2)
  in
  let result =
    if !changed_only then
      match changed_ml_files () with
      | Some changed ->
          (* Intersect with the requested paths so `--changed-only test`
             still means "changed files under test/". *)
          let in_scope = Lint.Driver.collect_ml_files paths in
          let files = List.filter (fun f -> List.mem f in_scope) changed in
          Lint.Driver.run_files ~allowlist ?jobs:!jobs ?cache_dir:!cache_dir
            files
      | None ->
          Printf.eprintf
            "hydra_lint: warning: --changed-only needs git and origin/main; \
             falling back to a full scan\n";
          Lint.Driver.run ~allowlist ?jobs:!jobs ?cache_dir:!cache_dir paths
    else Lint.Driver.run ~allowlist ?jobs:!jobs ?cache_dir:!cache_dir paths
  in
  let report =
    match !format with
    | "json" -> Lint.Driver.report_json result
    | "sarif" -> Lint.Driver.report_sarif result
    | _ -> Lint.Driver.report_text result
  in
  print_string report;
  (match !out_file with
  | Some file ->
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc (Lint.Driver.report_json result))
  | None -> ());
  List.iter (Printf.eprintf "hydra_lint: %s\n") result.warnings;
  List.iter (Printf.eprintf "hydra_lint: error: %s\n") result.errors;
  Printf.eprintf
    "hydra_lint: scanned %d file(s), %d finding(s), %d note(s)%s\n"
    result.files_scanned
    (List.length result.findings)
    (List.length result.notes)
    (if !cache_dir <> None then
       Printf.sprintf ", %d cached" result.cache_hits
     else "");
  if result.errors <> [] then exit 2
  else if result.findings <> [] then exit 1
