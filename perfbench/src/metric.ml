type t = { name : string; unit_ : string; value : float; samples : int }

let v ?(samples = 1) name unit_ value = { name; unit_; value; samples }
let na name unit_ = { name; unit_; value = 0.; samples = 0 }

let print_table ~title metrics =
  Printf.printf "%s\n" title;
  Printf.printf "  %-34s %16s  %-10s %8s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun m ->
      if m.samples = 0 then
        Printf.printf "  %-34s %16s  %-10s %8s\n" m.name "n/a" m.unit_ "-"
      else
        Printf.printf "  %-34s %16.6g  %-10s %8d\n" m.name m.value m.unit_
          m.samples)
    metrics

(* All digits; a non-finite value (never expected) renders as 0. *)
let json_number f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let result_line ~correct ~attempted ~failed metrics =
  let b = Buffer.create 512 in
  Printf.bprintf b "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{"
    correct attempted failed;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" m.name
        (json_number m.value) m.unit_)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
