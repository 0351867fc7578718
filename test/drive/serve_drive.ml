(* Lockstep client against a live daemon (hydra_c serve):

     serve_drive.exe SOCKET N [--no-shutdown]

   connects to the Unix-domain SOCKET and sends the first N requests
   of the steady script (Steady_script) one at a time — waiting for
   each response before the next request, so batching cannot coalesce
   and the transcript is reproducible — then a Shutdown (unless
   --no-shutdown, which leaves the daemon running so CI can scrape it
   live between drives; 'SOCKET 0' later sends just the Shutdown),
   printing every response payload on its own line. The CI serve-smoke
   step diffs this output against the committed
   test/server_fixtures/serve_smoke.expected. *)

module Protocol = Hydra_server.Protocol

let usage () =
  prerr_endline "usage: serve_drive.exe SOCKET N [--no-shutdown]";
  exit 2

(* The daemon may still be binding its socket when the client starts;
   retry briefly instead of failing on the race. *)
let connect_retry path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go attempts =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when attempts > 0 ->
        Unix.sleepf 0.1;
        go (attempts - 1)
  in
  go 50

let drive socket n ~shutdown =
  let fd = connect_retry socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      List.iter
        (fun r ->
          Protocol.write_frame fd (Protocol.encode_request r);
          match Protocol.read_frame fd with
          | Some payload -> print_endline payload
          | None ->
              prerr_endline "serve_drive: connection closed mid-stream";
              exit 1)
        (Hydra_drive.Steady_script.prefix ~shutdown n))

let () =
  match Sys.argv with
  | [| _; socket; n |] | [| _; socket; n; "--no-shutdown" |] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 ->
          drive socket n ~shutdown:(Array.length Sys.argv = 3)
      | _ -> usage ())
  | _ -> usage ()
