external now_ns : unit -> int = "hydra_obs_monotonic_ns" [@@noalloc]

(* ------------------------------------------------------------------ *)
(* Request-scoped trace contexts.

   A context is three small ints — the trace id shared by every span of
   one request, the current span id, and the parent span id — minted
   from one process-wide atomic counter so ids are unique across
   registries and domains. Contexts are immutable values: propagating
   one across a queue or into a pool worker is just passing it along,
   and [child] forks a new span id under the current one. A daemon
   without --trace-out never mints one, and trace events live outside
   the snapshot either way (see [chrome_trace]). *)

module Trace_ctx = struct
  type t = { trace_id : int; span_id : int; parent_id : int }

  let ids = Atomic.make 1
  let fresh_id () = Atomic.fetch_and_add ids 1

  let root () =
    let id = fresh_id () in
    { trace_id = id; span_id = id; parent_id = 0 }

  let child ctx = { ctx with span_id = fresh_id (); parent_id = ctx.span_id }
end

(* ------------------------------------------------------------------ *)
(* Striped atomic cells.

   Every metric is an array of [stripes] atomics; a writer touches only
   the cell indexed by its domain id, so Parallel.Pool workers never
   contend on a cache line they both write. The OCaml 5 runtime caps
   live domains at 128 and domain ids only grow, so a power-of-two mask
   keeps collisions rare — and a collision merely shares an atomic, it
   never loses an update. Reads sum (or fold min/max over) the stripes;
   they are exact once the writing domains have been joined, which is
   the only point the experiment harnesses read them. *)

let stripes = 64
let slot () = (Domain.self () :> int) land (stripes - 1)

type counter = int Atomic.t array

let make_counter () : counter = Array.init stripes (fun _ -> Atomic.make 0)
let counter_add (c : counter) n = ignore (Atomic.fetch_and_add c.(slot ()) n)

let counter_read (c : counter) =
  Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c

type dist = {
  d_count : counter;
  d_sum : counter;
  d_min : int Atomic.t array;
  d_max : int Atomic.t array;
}

let make_dist () =
  { d_count = make_counter ();
    d_sum = make_counter ();
    d_min = Array.init stripes (fun _ -> Atomic.make max_int);
    d_max = Array.init stripes (fun _ -> Atomic.make min_int) }

let rec atomic_min cell v =
  let cur = Atomic.get cell in
  if v < cur && not (Atomic.compare_and_set cell cur v) then atomic_min cell v

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

let dist_record d v =
  let s = slot () in
  ignore (Atomic.fetch_and_add d.d_count.(s) 1);
  ignore (Atomic.fetch_and_add d.d_sum.(s) v);
  atomic_min d.d_min.(s) v;
  atomic_max d.d_max.(s) v

let dist_read d =
  let count = counter_read d.d_count in
  let sum = counter_read d.d_sum in
  let mn = Array.fold_left (fun acc a -> min acc (Atomic.get a)) max_int d.d_min in
  let mx = Array.fold_left (fun acc a -> max acc (Atomic.get a)) min_int d.d_max in
  (count, sum, mn, mx)

(* ------------------------------------------------------------------ *)
(* Log-bucketed histograms.

   HDR-histogram-style log-linear bucketing over non-negative ints:
   values below [sub = 2^6] get singleton buckets (exact); a value with
   most-significant bit k >= 6 lands in one of 64 equal sub-buckets of
   the octave [2^k, 2^(k+1)), so the bucket upper bound overestimates
   the value by at most 1/64 (~1.6%). The bucket index is a pure
   function of the value and bucket counts are added commutatively, so
   the merged histogram — and every quantile read from it — is
   bit-identical regardless of how recording interleaved across
   domains. [quantile] rank-selects over the cumulative bucket counts
   and clamps the bucket upper bound to the exact tracked maximum, so
   p100 (and any quantile landing in the top occupied bucket) is
   exact. *)

module Histogram = struct
  let sub_bits = 6
  let sub = 1 lsl sub_bits

  (* position of the most significant set bit; [v > 0] *)
  let msb v =
    let k = ref 0 and v = ref v in
    if !v lsr 32 <> 0 then (k := !k + 32; v := !v lsr 32);
    if !v lsr 16 <> 0 then (k := !k + 16; v := !v lsr 16);
    if !v lsr 8 <> 0 then (k := !k + 8; v := !v lsr 8);
    if !v lsr 4 <> 0 then (k := !k + 4; v := !v lsr 4);
    if !v lsr 2 <> 0 then (k := !k + 2; v := !v lsr 2);
    if !v lsr 1 <> 0 then k := !k + 1;
    !k

  (* max_int has msb 61, so indices stop at (61-6+1)*64 + 63 = 3647. *)
  let n_buckets = 3648

  let bucket_of v =
    let v = if v < 0 then 0 else v in
    if v < sub then v
    else
      let k = msb v in
      ((k - sub_bits + 1) lsl sub_bits)
      lor ((v lsr (k - sub_bits)) land (sub - 1))

  let bucket_bounds i =
    if i < sub then (i, i)
    else
      let k = (i lsr sub_bits) + sub_bits - 1 in
      let w = 1 lsl (k - sub_bits) in
      let lo = (1 lsl k) + ((i land (sub - 1)) * w) in
      (lo, lo + w - 1)

  let round_up v = snd (bucket_bounds (bucket_of v))

  type t = {
    buckets : int array;
    mutable h_count : int;
    mutable h_sum : int;
    mutable h_min : int;  (* max_int while empty *)
    mutable h_max : int;  (* min_int while empty *)
  }

  let create () =
    { buckets = Array.make n_buckets 0; h_count = 0; h_sum = 0;
      h_min = max_int; h_max = min_int }

  let record t v =
    let v = if v < 0 then 0 else v in
    t.buckets.(bucket_of v) <- t.buckets.(bucket_of v) + 1;
    t.h_count <- t.h_count + 1;
    t.h_sum <- t.h_sum + v;
    if v < t.h_min then t.h_min <- v;
    if v > t.h_max then t.h_max <- v

  let of_list vs =
    let t = create () in
    List.iter (record t) vs;
    t

  let merge_into ~into t =
    Array.iteri
      (fun i n -> if n <> 0 then into.buckets.(i) <- into.buckets.(i) + n)
      t.buckets;
    into.h_count <- into.h_count + t.h_count;
    into.h_sum <- into.h_sum + t.h_sum;
    if t.h_min < into.h_min then into.h_min <- t.h_min;
    if t.h_max > into.h_max then into.h_max <- t.h_max

  let count t = t.h_count
  let sum t = t.h_sum
  let min_value t = if t.h_count = 0 then None else Some t.h_min
  let max_value t = if t.h_count = 0 then None else Some t.h_max

  let mean t =
    if t.h_count = 0 then Float.nan
    else float_of_int t.h_sum /. float_of_int t.h_count

  let quantile t q =
    if t.h_count = 0 then invalid_arg "Histogram.quantile: empty histogram";
    if not (q > 0.0) || q > 1.0 then
      invalid_arg "Histogram.quantile: q outside (0, 1]";
    let rank = int_of_float (Float.ceil (q *. float_of_int t.h_count)) in
    let rank = if rank < 1 then 1 else if rank > t.h_count then t.h_count else rank in
    let rec go i acc =
      let acc = acc + t.buckets.(i) in
      if acc >= rank then Stdlib.min (snd (bucket_bounds i)) t.h_max
      else go (i + 1) acc
    in
    go 0 0

  let nonzero_buckets t =
    let acc = ref [] in
    for i = n_buckets - 1 downto 0 do
      if t.buckets.(i) <> 0 then
        acc := (snd (bucket_bounds i), t.buckets.(i)) :: !acc
    done;
    !acc
end

(* Striped histogram: the count/sum/min/max part reuses the striped
   [dist]; bucket arrays are allocated lazily per stripe (3648 atomics
   only for domains that actually record). A stripe collision (> 64
   live domains) shares the atomics but never loses an update. *)

type hist = {
  h_dist : dist;
  h_stripes : int Atomic.t array option Atomic.t array;
}

let make_hist () =
  { h_dist = make_dist ();
    h_stripes = Array.init stripes (fun _ -> Atomic.make None) }

let hist_record h v =
  let v = if v < 0 then 0 else v in
  dist_record h.h_dist v;
  let s = slot () in
  let buckets =
    match Atomic.get h.h_stripes.(s) with
    | Some b -> b
    | None ->
        let b = Array.init Histogram.n_buckets (fun _ -> Atomic.make 0) in
        if Atomic.compare_and_set h.h_stripes.(s) None (Some b) then b
        else
          (* another domain sharing the stripe won the race *)
          Option.get (Atomic.get h.h_stripes.(s))
  in
  ignore (Atomic.fetch_and_add buckets.(Histogram.bucket_of v) 1)

let hist_read h =
  let out = Histogram.create () in
  Array.iter
    (fun stripe ->
      match Atomic.get stripe with
      | None -> ()
      | Some b ->
          Array.iteri
            (fun i a ->
              let n = Atomic.get a in
              if n <> 0 then
                out.Histogram.buckets.(i) <- out.Histogram.buckets.(i) + n)
            b)
    h.h_stripes;
  let c, s, mn, mx = dist_read h.h_dist in
  out.Histogram.h_count <- c;
  out.Histogram.h_sum <- s;
  out.Histogram.h_min <- mn;
  out.Histogram.h_max <- mx;
  out

(* ------------------------------------------------------------------ *)
(* Registry *)

(* One store for every event [chrome_trace] renders. [span] records
   [Plain] events; [trace_span]/[trace_emit] record [Request] spans and
   [flow_begin]/[flow_end] the two flow halves, all for traced requests
   only. None of them is in the snapshot tables, so a run with tracing
   enabled still produces a byte-identical --metrics-out (only
   --trace-out grows). *)
type event_kind =
  | Plain
  | Request of Trace_ctx.t
  | Flow of { id : int; start : bool }  (* start = "s", else "f" *)

type event = {
  ev_name : string;
  ev_domain : int;
  ev_start_ns : int;  (* relative to the registry's creation *)
  ev_dur_ns : int;  (* 0 for flow halves *)
  ev_kind : event_kind;
}

type t = {
  id : int;
  epoch_ns : int;
  mu : Mutex.t;
  counters : (string, counter) Hashtbl.t;
  dists : (string, dist) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  spans : (string, dist) Hashtbl.t;
  events : event list Atomic.t;
}

let next_id = Atomic.make 0

let create () =
  { id = Atomic.fetch_and_add next_id 1;
    epoch_ns = now_ns ();
    mu = Mutex.create ();
    counters = Hashtbl.create 32;
    dists = Hashtbl.create 16;
    hists = Hashtbl.create 16;
    spans = Hashtbl.create 16;
    events = Atomic.make [] }

(* Per-domain handle caches: name resolution takes the registry mutex
   only on a domain's first use of a metric; afterwards the lookup is a
   domain-local hashtable hit followed by one atomic add on the
   domain's own stripe — no cross-domain contention in steady state.
   Keys include the registry id so multiple registries coexist. *)

let counter_cache : (int * string, counter) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let dist_cache : (int * string, dist) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let hist_cache : (int * string, hist) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let span_cache : (int * string, dist) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let resolve cache table mu ~make id name =
  let local = Domain.DLS.get cache in
  match Hashtbl.find_opt local (id, name) with
  | Some cell -> cell
  | None ->
      let cell =
        Mutex.protect mu (fun () ->
            match Hashtbl.find_opt table name with
            | Some cell -> cell
            | None ->
                let cell = make () in
                Hashtbl.add table name cell;
                cell)
      in
      Hashtbl.add local (id, name) cell;
      cell

(* ------------------------------------------------------------------ *)
(* Recording (all no-ops on [None]) *)

let add obs name n =
  match obs with
  | None -> ()
  | Some t ->
      counter_add (resolve counter_cache t.counters t.mu ~make:make_counter t.id name) n

let incr obs name = add obs name 1

let observe obs name v =
  match obs with
  | None -> ()
  | Some t ->
      dist_record (resolve dist_cache t.dists t.mu ~make:make_dist t.id name) v

let sample obs name v =
  match obs with
  | None -> ()
  | Some t ->
      hist_record (resolve hist_cache t.hists t.mu ~make:make_hist t.id name) v

let push_event t ~name ~start_ns ~dur_ns kind =
  let ev =
    { ev_name = name; ev_domain = (Domain.self () :> int);
      ev_start_ns = start_ns - t.epoch_ns; ev_dur_ns = dur_ns; ev_kind = kind }
  in
  let rec go () =
    let cur = Atomic.get t.events in
    if not (Atomic.compare_and_set t.events cur (ev :: cur)) then go ()
  in
  go ()

(* Runs [f] and hands its start and duration to [finish], also when [f]
   raises (the exception is re-raised). *)
let timed f finish =
  let t0 = now_ns () in
  match f () with
  | v ->
      finish t0 (now_ns () - t0);
      v
  | exception e ->
      finish t0 (now_ns () - t0);
      raise e

let span obs name f =
  match obs with
  | None -> f ()
  | Some t ->
      let d = resolve span_cache t.spans t.mu ~make:make_dist t.id name in
      timed f (fun start_ns dur_ns ->
          dist_record d dur_ns;
          push_event t ~name ~start_ns ~dur_ns Plain)

(* Request-scoped tracing: all no-ops unless both the registry and the
   context are present, so an untraced request pays only two option
   tests. Unlike [span], nothing here touches the span aggregates —
   trace events are visible only through [chrome_trace]. *)

let trace_emit obs ctx name ~start_ns ~dur_ns =
  match (obs, ctx) with
  | Some t, Some c -> push_event t ~name ~start_ns ~dur_ns (Request c)
  | _ -> ()

let trace_span obs ctx name f =
  match (obs, ctx) with
  | Some t, Some c ->
      timed f (fun start_ns dur_ns ->
          push_event t ~name ~start_ns ~dur_ns (Request c))
  | _ -> f ()

let flow_point obs ctx name ~start =
  match (obs, ctx) with
  | Some t, Some (c : Trace_ctx.t) ->
      push_event t ~name ~start_ns:(now_ns ()) ~dur_ns:0
        (Flow { id = c.trace_id; start })
  | _ -> ()

let flow_begin obs ctx name = flow_point obs ctx name ~start:true
let flow_end obs ctx name = flow_point obs ctx name ~start:false

(* ------------------------------------------------------------------ *)
(* Reading *)

type counter_view = { cv_name : string; cv_total : int }

type dist_view = {
  dv_name : string;
  dv_count : int;
  dv_sum : int;
  dv_min : int;
  dv_max : int;
}

type span_view = {
  sv_name : string;
  sv_count : int;
  sv_total_ns : int;
  sv_max_ns : int;
}

let by_name f a b = String.compare (f a) (f b)

let counters t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.fold
        (fun name c acc -> { cv_name = name; cv_total = counter_read c } :: acc)
        t.counters [])
  |> List.sort (by_name (fun v -> v.cv_name))

let dists t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.fold
        (fun name d acc ->
          let count, sum, mn, mx = dist_read d in
          if count = 0 then acc
          else
            { dv_name = name; dv_count = count; dv_sum = sum; dv_min = mn;
              dv_max = mx }
            :: acc)
        t.dists [])
  |> List.sort (by_name (fun v -> v.dv_name))

type hist_view = { hv_name : string; hv_hist : Histogram.t }

let hists t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.fold
        (fun name h acc ->
          let view = hist_read h in
          if Histogram.count view = 0 then acc
          else { hv_name = name; hv_hist = view } :: acc)
        t.hists [])
  |> List.sort (by_name (fun v -> v.hv_name))

let span_stats t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.fold
        (fun name d acc ->
          let count, sum, _, mx = dist_read d in
          if count = 0 then acc
          else
            { sv_name = name; sv_count = count; sv_total_ns = sum;
              sv_max_ns = mx }
            :: acc)
        t.spans [])
  |> List.sort (by_name (fun v -> v.sv_name))

let counter_total t name =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some c -> counter_read c
      | None -> 0)

(* Oldest first by start time; the sort is stable, so events with
   equal timestamps keep their recording order. *)
let sorted_events t =
  List.rev (Atomic.get t.events)
  |> List.sort (fun a b ->
         match Int.compare a.ev_start_ns b.ev_start_ns with
         | 0 -> Int.compare a.ev_domain b.ev_domain
         | c -> c)

let trace_count t =
  List.fold_left
    (fun n e -> match e.ev_kind with Plain -> n | Request _ | Flow _ -> n + 1)
    0 (Atomic.get t.events)

(* ------------------------------------------------------------------ *)
(* Exporters *)

let pp_ns ppf ns =
  if ns < 1_000 then Format.fprintf ppf "%dns" ns
  else if ns < 1_000_000 then Format.fprintf ppf "%.1fus" (float_of_int ns /. 1e3)
  else if ns < 1_000_000_000 then
    Format.fprintf ppf "%.1fms" (float_of_int ns /. 1e6)
  else Format.fprintf ppf "%.2fs" (float_of_int ns /. 1e9)

let pp_summary ppf t =
  let line = String.make 70 '-' in
  Format.fprintf ppf "%s@." line;
  Format.fprintf ppf "Hydra_obs metrics summary@.";
  Format.fprintf ppf "%s@." line;
  let cs = counters t and ds = dists t and hs = hists t and ss = span_stats t in
  if cs <> [] then begin
    Format.fprintf ppf "%-44s %12s@." "counter" "total";
    List.iter
      (fun v -> Format.fprintf ppf "  %-42s %12d@." v.cv_name v.cv_total)
      cs
  end;
  if ds <> [] then begin
    Format.fprintf ppf "%-36s %8s %10s %7s %7s@." "distribution" "count"
      "mean" "min" "max";
    List.iter
      (fun v ->
        Format.fprintf ppf "  %-34s %8d %10.2f %7d %7d@." v.dv_name v.dv_count
          (float_of_int v.dv_sum /. float_of_int v.dv_count)
          v.dv_min v.dv_max)
      ds
  end;
  if hs <> [] then begin
    Format.fprintf ppf "%-36s %8s %8s %8s %8s %8s@." "histogram" "count"
      "p50" "p95" "p99" "max";
    List.iter
      (fun v ->
        let h = v.hv_hist in
        Format.fprintf ppf "  %-34s %8d %8d %8d %8d %8d@." v.hv_name
          (Histogram.count h)
          (Histogram.quantile h 0.50)
          (Histogram.quantile h 0.95)
          (Histogram.quantile h 0.99)
          (Option.value (Histogram.max_value h) ~default:0))
      hs
  end;
  if ss <> [] then begin
    Format.fprintf ppf "%-36s %8s %10s %10s %10s@." "span" "count" "total"
      "mean" "max";
    let ns n = Format.asprintf "%a" pp_ns n in
    List.iter
      (fun v ->
        Format.fprintf ppf "  %-34s %8d %10s %10s %10s@." v.sv_name v.sv_count
          (ns v.sv_total_ns)
          (ns (v.sv_total_ns / max 1 v.sv_count))
          (ns v.sv_max_ns))
      ss
  end;
  if cs = [] && ds = [] && hs = [] && ss = [] then
    Format.fprintf ppf "(no metrics recorded)@.";
  Format.fprintf ppf "%s@." line

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Chrome trace-event format (the JSON array flavour understood by
   Perfetto and chrome://tracing): process/thread metadata, then one
   event per stored event with microsecond timestamps and tid = the
   recording domain's id. A plain span is an "X" complete event of
   category "span"; viewers reconstruct nesting from containment of
   [ts, ts+dur] intervals on the same tid. A traced request's span is
   an "X" event of category "request" carrying trace/span/parent ids
   in its args, and each cross-domain handoff is an "s"/"f" flow pair
   keyed by the trace id — Perfetto draws the arrow from the
   dispatching domain's row to the executing worker's. *)
let chrome_trace ?(extra = []) t =
  let evs = sorted_events t in
  let us ns = float_of_int ns /. 1e3 in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"hydra\"}}";
  List.iter
    (fun tid ->
      Printf.bprintf b
        ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"domain %d\"}}"
        tid tid)
    (List.sort_uniq Int.compare (List.map (fun e -> e.ev_domain) evs));
  List.iter
    (fun e ->
      let cat, ph =
        match e.ev_kind with
        | Plain -> ("span", "\"X\"")
        | Request _ -> ("request", "\"X\"")
        | Flow { start = true; _ } -> ("request", "\"s\"")
        | Flow { start = false; _ } -> ("request", "\"f\",\"bp\":\"e\"")
      in
      Printf.bprintf b
        ",{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":%s,\"pid\":0,\"tid\":%d,\"ts\":%.3f"
        (json_escape e.ev_name) cat ph e.ev_domain (us e.ev_start_ns);
      match e.ev_kind with
      | Plain -> Printf.bprintf b ",\"dur\":%.3f}" (us e.ev_dur_ns)
      | Request c ->
          Printf.bprintf b
            ",\"dur\":%.3f,\"args\":{\"trace\":%d,\"span\":%d,\"parent\":%d}}"
            (us e.ev_dur_ns) c.trace_id c.span_id c.parent_id
      | Flow { id; _ } -> Printf.bprintf b ",\"id\":%d}" id)
    evs;
  (* Extra pre-rendered events (e.g. a simulated schedule from
     Sim.Event_log, attributed to its own pid) share the file. *)
  List.iter
    (fun ev ->
      Buffer.add_char b ',';
      Buffer.add_string b ev)
    extra;
  Buffer.add_string b "]}";
  Buffer.contents b

let write_chrome_trace ?extra t ~path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (chrome_trace ?extra t))

(* ------------------------------------------------------------------ *)
(* Flight recorder: a fixed-size lock-free ring of compact structured
   events, cheap enough to leave on in the daemon's default
   configuration (doc/OBSERVABILITY.md).

   Each event is five ints in a flat [int Atomic.t] array — timestamp,
   kind code, interned tenant id, and two free arguments — claimed by a
   single [fetch_and_add] on the head counter, so [record] never takes
   a lock and never allocates ([@lint.hot]-gated: its whole call cone
   is atomics and unsafe array reads). Writers wrap; a dump reads the
   last [min recorded capacity] slots oldest-first. Dumping while
   writers are active is best-effort — a slot being overwritten
   mid-read can tear into a mix of two events — which is the right
   trade for a crash/SIGUSR1 diagnostic: the recorder must never slow
   the path it is recording. Tenant names are interned to small ints on
   a mutex-protected slow path (once per tenant, not per event). *)

module Flight = struct
  let schema = "hydra_c.flight/1"

  type kind =
    | Accept
    | Decode
    | Coalesce
    | Shard
    | Select
    | Reply
    | Slow
    | Error

  let kind_code = function
    | Accept -> 0
    | Decode -> 1
    | Coalesce -> 2
    | Shard -> 3
    | Select -> 4
    | Reply -> 5
    | Slow -> 6
    | Error -> 7

  (* indexed by [kind_code] *)
  let kind_names =
    [| "accept"; "decode"; "coalesce"; "shard"; "select"; "reply"; "slow";
       "error" |]

  let name_of_code c =
    if c >= 0 && c < Array.length kind_names then kind_names.(c)
    else "torn"  (* a dump raced a writer over this slot *)

  let width = 5  (* ts, kind, tenant, a, b *)

  type t = {
    f_cap : int;  (* power of two *)
    f_head : int Atomic.t;  (* total events ever recorded *)
    f_slots : int Atomic.t array;  (* f_cap * width cells *)
    f_mu : Mutex.t;  (* guards the interning tables only *)
    f_ids : (string, int) Hashtbl.t;
    mutable f_names : string array;  (* id -> name *)
    mutable f_n_names : int;
  }

  let create ?(capacity = 4096) () =
    let cap =
      let c = Stdlib.max 8 capacity in
      let p = ref 8 in
      while !p < c do
        p := !p * 2
      done;
      !p
    in
    { f_cap = cap;
      f_head = Atomic.make 0;
      f_slots = Array.init (cap * width) (fun _ -> Atomic.make 0);
      f_mu = Mutex.create ();
      f_ids = Hashtbl.create 16;
      f_names = Array.make 16 "";
      f_n_names = 0 }

  let capacity t = t.f_cap
  let recorded t = Atomic.get t.f_head

  let intern t name =
    Mutex.protect t.f_mu (fun () ->
        match Hashtbl.find_opt t.f_ids name with
        | Some id -> id
        | None ->
            let id = t.f_n_names in
            if id >= Array.length t.f_names then begin
              let bigger = Array.make (2 * Array.length t.f_names) "" in
              Array.blit t.f_names 0 bigger 0 id;
              t.f_names <- bigger
            end;
            t.f_names.(id) <- name;
            t.f_n_names <- id + 1;
            Hashtbl.add t.f_ids name id;
            id)

  (* [tenant] is an [intern]ed id (or -1 for none); [ts] is the
     caller's clock reading so fixed-sequence dumps are reproducible in
     tests. Allocation-free and lock-free: D8-verified via the
     [@lint.hot] gate. *)
  let[@lint.hot] record t ~ts ~kind ~tenant ~a ~b =
    let seq = Atomic.fetch_and_add t.f_head 1 in
    let base = (seq land (t.f_cap - 1)) * width in
    Atomic.set (Array.unsafe_get t.f_slots base) ts;
    Atomic.set (Array.unsafe_get t.f_slots (base + 1)) (kind_code kind);
    Atomic.set (Array.unsafe_get t.f_slots (base + 2)) tenant;
    Atomic.set (Array.unsafe_get t.f_slots (base + 3)) a;
    Atomic.set (Array.unsafe_get t.f_slots (base + 4)) b

  (* JSONL, oldest surviving event first: a header line identifying the
     ring, then one line per event. *)
  let dump t =
    let total = Atomic.get t.f_head in
    let n = Stdlib.min total t.f_cap in
    let names =
      Mutex.protect t.f_mu (fun () -> Array.sub t.f_names 0 t.f_n_names)
    in
    let b = Buffer.create (256 + (n * 96)) in
    Printf.bprintf b
      "{\"schema\":\"%s\",\"capacity\":%d,\"recorded\":%d,\"dumped\":%d}\n"
      schema t.f_cap total n;
    for seq = total - n to total - 1 do
      let base = (seq land (t.f_cap - 1)) * width in
      let ts = Atomic.get t.f_slots.(base) in
      let kind = Atomic.get t.f_slots.(base + 1) in
      let tenant = Atomic.get t.f_slots.(base + 2) in
      let a = Atomic.get t.f_slots.(base + 3) in
      let bv = Atomic.get t.f_slots.(base + 4) in
      let tname =
        if tenant >= 0 && tenant < Array.length names then names.(tenant)
        else ""
      in
      Printf.bprintf b
        "{\"seq\":%d,\"ts_ns\":%d,\"kind\":\"%s\",\"tenant\":\"%s\",\"a\":%d,\"b\":%d}\n"
        seq ts (name_of_code kind) (json_escape tname) a bv
    done;
    Buffer.contents b

  let dump_to t ~path =
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (dump t))
end

(* ------------------------------------------------------------------ *)
(* Rate-limited structured stderr logging.

   The one sanctioned way for long-running library code (the admission
   daemon in particular — hydra_lint rule D2 rejects any other stderr
   write under lib/server) to talk to an operator: one line per event,
   [key=value] formatted, throttled by a token bucket on the monotonic
   clock so a failure loop cannot flood the terminal. Suppressed lines
   are counted and the count is reported on the next line that gets
   through ([suppressed=N]), so throttling is visible rather than
   silent. Stdout is never touched — the determinism contract covers
   stdout bytes only. *)

module Log = struct
  type t = {
    lg_mu : Mutex.t;
    lg_rate : int;  (* tokens (lines) per second; 0 = unlimited *)
    lg_burst : int;
    lg_out : Format.formatter;
    mutable lg_tokens : float;
    mutable lg_last_ns : int;
    mutable lg_suppressed : int;
    mutable lg_emitted : int;
  }

  let create ?(rate_per_s = 10) ?burst ?out () =
    let rate = Stdlib.max 0 rate_per_s in
    let burst =
      match burst with
      | Some b -> Stdlib.max 1 b
      | None -> Stdlib.max 1 rate
    in
    { lg_mu = Mutex.create ();
      lg_rate = rate;
      lg_burst = burst;
      lg_out = (match out with Some f -> f | None -> Format.err_formatter);
      lg_tokens = float_of_int burst;
      lg_last_ns = now_ns ();
      lg_suppressed = 0;
      lg_emitted = 0 }

  let quote v =
    let plain =
      v <> ""
      && String.for_all
           (fun c -> c <> ' ' && c <> '"' && c <> '=' && Char.code c >= 0x20)
           v
    in
    if plain then v else "\"" ^ json_escape v ^ "\""

  let log t event kvs =
    Mutex.protect t.lg_mu (fun () ->
        let now = now_ns () in
        (if t.lg_rate > 0 then begin
           let dt = float_of_int (now - t.lg_last_ns) /. 1e9 in
           t.lg_tokens <-
             Float.min
               (float_of_int t.lg_burst)
               (t.lg_tokens +. (dt *. float_of_int t.lg_rate))
         end);
        t.lg_last_ns <- now;
        if t.lg_rate > 0 && t.lg_tokens < 1.0 then
          t.lg_suppressed <- t.lg_suppressed + 1
        else begin
          if t.lg_rate > 0 then t.lg_tokens <- t.lg_tokens -. 1.0;
          t.lg_emitted <- t.lg_emitted + 1;
          Format.fprintf t.lg_out "[hydra] event=%s" (quote event);
          if t.lg_suppressed > 0 then begin
            Format.fprintf t.lg_out " suppressed=%d" t.lg_suppressed;
            t.lg_suppressed <- 0
          end;
          List.iter
            (fun (k, v) -> Format.fprintf t.lg_out " %s=%s" k (quote v))
            kvs;
          Format.fprintf t.lg_out "@."
        end)

  let suppressed t = Mutex.protect t.lg_mu (fun () -> t.lg_suppressed)
  let emitted t = Mutex.protect t.lg_mu (fun () -> t.lg_emitted)
end

(* ------------------------------------------------------------------ *)
(* Machine-readable metrics snapshot (--metrics-out) *)

module Snapshot = struct
  let json_float f =
    if Float.is_finite f then Printf.sprintf "%.12g" f else "null"

  let schema = "hydra_c.metrics/1"

  (* Stable schema, sorted keys, deterministic values only: counters,
     distributions and histograms are pure functions of the analytical
     work (identical for every --jobs value), and spans contribute only
     their counts — their durations are wall-clock noise — so two
     snapshots of the same workload diff clean across job counts. *)
  let to_json t =
    let b = Buffer.create 4096 in
    let obj_of b render items =
      Buffer.add_char b '{';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          render b item)
        items;
      Buffer.add_char b '}'
    in
    Buffer.add_string b "{\"schema\":\"";
    Buffer.add_string b schema;
    Buffer.add_string b "\",\"counters\":";
    obj_of b
      (fun b (c : counter_view) ->
        Printf.bprintf b "\"%s\":%d" (json_escape c.cv_name) c.cv_total)
      (counters t);
    Buffer.add_string b ",\"dists\":";
    obj_of b
      (fun b (d : dist_view) ->
        Printf.bprintf b
          "\"%s\":{\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"mean\":%s}"
          (json_escape d.dv_name) d.dv_count d.dv_sum d.dv_min d.dv_max
          (json_float (float_of_int d.dv_sum /. float_of_int d.dv_count)))
      (dists t);
    Buffer.add_string b ",\"histograms\":";
    obj_of b
      (fun b (v : hist_view) ->
        let h = v.hv_hist in
        Printf.bprintf b
          "\"%s\":{\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"mean\":%s,\
           \"quantiles\":{\"p50\":%d,\"p95\":%d,\"p99\":%d,\"max\":%d},\
           \"buckets\":["
          (json_escape v.hv_name) (Histogram.count h) (Histogram.sum h)
          (Option.value (Histogram.min_value h) ~default:0)
          (Option.value (Histogram.max_value h) ~default:0)
          (json_float (Histogram.mean h))
          (Histogram.quantile h 0.50) (Histogram.quantile h 0.95)
          (Histogram.quantile h 0.99)
          (Option.value (Histogram.max_value h) ~default:0);
        List.iteri
          (fun i (le, count) ->
            if i > 0 then Buffer.add_char b ',';
            Printf.bprintf b "{\"le\":%d,\"count\":%d}" le count)
          (Histogram.nonzero_buckets h);
        Buffer.add_string b "]}")
      (hists t);
    Buffer.add_string b ",\"spans\":";
    obj_of b
      (fun b (s : span_view) ->
        Printf.bprintf b "\"%s\":{\"count\":%d}" (json_escape s.sv_name)
          s.sv_count)
      (span_stats t);
    Buffer.add_string b "}";
    Buffer.contents b

  let write t ~path =
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (to_json t);
        Out_channel.output_char oc '\n')
end

(* Offline snapshot tooling, re-exported so consumers reach everything
   through the one [Hydra_obs] entry point. *)
module Json = Obs_json
module Report = Obs_report
