module Json = Hydra_obs.Json

type span = { name : string; tid : int; start_ns : int; dur_ns : int }

(* Calls [f] on the text of each top-level object of the JSON array
   that starts at [from]: a scanner that tracks string and nesting
   state, so a trace of hundreds of thousands of events is never held
   as one parsed tree. *)
let iter_array_objects s ~from f =
  let n = String.length s in
  let depth = ref 0 and in_str = ref false and esc = ref false in
  let start = ref 0 and i = ref from in
  while !i < n do
    let c = s.[!i] in
    if !in_str then begin
      if !esc then esc := false
      else if c = '\\' then esc := true
      else if c = '"' then in_str := false
    end
    else begin
      match c with
      | '"' -> in_str := true
      | '{' ->
          if !depth = 0 then start := !i;
          incr depth
      | '}' ->
          decr depth;
          if !depth = 0 then f (String.sub s !start (!i - !start + 1))
      | ']' when !depth = 0 -> i := n
      | _ -> ()
    end;
    incr i
  done

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then raise (Json.Error "traceEvents array not found")
    else if String.sub s i m = sub then i + m
    else go (i + 1)
  in
  go 0

let ns_of_us j = int_of_float (Float.round (Option.get (Json.to_float j) *. 1e3))

let of_chrome_trace s =
  let key = "\"traceEvents\":[" in
  let from = find_sub s key in
  let acc = ref [] in
  iter_array_objects s ~from (fun ev ->
      let j = Json.parse ev in
      match Json.member "ph" j with
      | Some (Json.Str "X") ->
          acc :=
            { name = Option.get (Json.to_string (Json.get "name" j));
              tid = Json.get_int "tid" j;
              start_ns = ns_of_us (Json.get "ts" j);
              dur_ns = ns_of_us (Json.get "dur" j) }
            :: !acc
      | _ -> ());
  List.rev !acc

(* Per domain: sort by start (longer first on ties, so a parent
   precedes a child that starts with it) and keep a stack of open
   spans. A span's parent is the innermost open span that still covers
   its start; the parent's covered time grows by the child's duration,
   clamped to the parent's end against timestamp rounding. *)
let self_times spans =
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun sp ->
      let l = Option.value (Hashtbl.find_opt by_tid sp.tid) ~default:[] in
      Hashtbl.replace by_tid sp.tid (sp :: l))
    spans;
  let totals = Hashtbl.create 16 in
  let add name v =
    Hashtbl.replace totals name
      (v + Option.value (Hashtbl.find_opt totals name) ~default:0)
  in
  Hashtbl.iter
    (fun _ l ->
      let sorted =
        List.sort
          (fun a b ->
            match Int.compare a.start_ns b.start_ns with
            | 0 -> Int.compare b.dur_ns a.dur_ns
            | c -> c)
          l
      in
      (* stack entries: span, its end, covered-by-children (mutable) *)
      let stack = ref [] in
      let close (sp, _, covered) = add sp.name (max 0 (sp.dur_ns - !covered)) in
      List.iter
        (fun sp ->
          let rec pop () =
            match !stack with
            | ((_, stop, _) as top) :: rest when stop <= sp.start_ns ->
                close top;
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | (_, stop, covered) :: _ ->
              covered := !covered + (min (sp.start_ns + sp.dur_ns) stop - sp.start_ns)
          | [] -> ());
          stack := (sp, sp.start_ns + sp.dur_ns, ref 0) :: !stack)
        sorted;
      List.iter close !stack)
    by_tid;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [])

let total spans name =
  List.fold_left (fun acc sp -> if sp.name = name then acc + sp.dur_ns else acc) 0 spans
