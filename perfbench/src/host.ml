let nproc () = Domain.recommended_domain_count ()

let read_lines path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> String.split_on_char '\n' s
  | exception Sys_error _ -> []

let field line key =
  match String.index_opt line ':' with
  | Some i when String.trim (String.sub line 0 i) = key ->
      Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
  | _ -> None

let cpu_model () =
  Option.value ~default:"unknown"
    (List.find_map (fun l -> field l "model name") (read_lines "/proc/cpuinfo"))

let cpu_ticks () =
  match read_lines "/proc/stat" with
  | l :: _ when String.starts_with ~prefix:"cpu " l -> (
      let ticks = List.filter_map int_of_string_opt (String.split_on_char ' ' l) in
      (* user nice system idle iowait irq softirq steal ... *)
      match List.nth_opt ticks 7 with
      | Some steal -> Some (steal, List.fold_left ( + ) 0 ticks)
      | None -> None)
  | _ -> None

let steal_share before after =
  match (before, after) with
  | Some (s0, t0), Some (s1, t1) when t1 > t0 ->
      Some (float_of_int (s1 - s0) /. float_of_int (t1 - t0))
  | _ -> None

let peak_rss_kib pid =
  List.find_map
    (fun l ->
      match field l "VmHWM" with
      | Some v -> Scanf.sscanf_opt v "%d kB" Fun.id
      | None -> None)
    (read_lines (Printf.sprintf "/proc/%d/status" pid))
