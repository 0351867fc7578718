type scale = {
  sc_seed : int;
  sc_trials : int;
  sc_per_group : int;
  sc_cores : int list;
  sc_validate_tasksets : int;
}

let fenced buf render =
  let inner = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer inner in
  render ppf;
  Format.pp_print_flush ppf ();
  Buffer.add_string buf "```\n";
  Buffer.add_string buf (String.trim (Buffer.contents inner));
  Buffer.add_string buf "\n```\n\n"

let heading buf level title =
  Buffer.add_string buf (String.make level '#');
  Buffer.add_char buf ' ';
  Buffer.add_string buf title;
  Buffer.add_string buf "\n\n"

let para buf text =
  Buffer.add_string buf text;
  Buffer.add_string buf "\n\n"

let generate ?jobs ?obs scale =
  Hydra_obs.span obs "report.generate" @@ fun () ->
  let buf = Buffer.create 8192 in
  heading buf 1 "HYDRA-C experiment report";
  para buf
    (Printf.sprintf
       "Regenerated with seed %d: %d rover trials, %d tasksets per \
        utilization group, core counts {%s}. See EXPERIMENTS.md for the \
        paper-vs-measured discussion; this document is the raw regeneration."
       scale.sc_seed scale.sc_trials scale.sc_per_group
       (String.concat ", " (List.map string_of_int scale.sc_cores)));

  heading buf 2 "Tables 1-3";
  fenced buf (fun ppf -> Tables.render_all ppf ());

  heading buf 2 "Fig. 5 — rover intrusion detection";
  para buf "T_max deployment (the paper's demo configuration):";
  let fig5 =
    Fig5.run ~seed:scale.sc_seed ~trials:scale.sc_trials ?jobs ?obs ()
  in
  fenced buf (fun ppf -> Fig5.render ppf fig5);
  para buf "Adapted-period deployment (each scheme's own selection):";
  let fig5a =
    Fig5.run ~seed:scale.sc_seed ~trials:scale.sc_trials
      ~deployment:Fig5.Adapted ?jobs ?obs ()
  in
  fenced buf (fun ppf -> Fig5.render ppf fig5a);

  heading buf 2 "Figs. 6 and 7 — design-space exploration";
  List.iter
    (fun n_cores ->
      let sweep =
        Sweep.run ~n_cores ~per_group:scale.sc_per_group ~seed:scale.sc_seed
          ?jobs ?obs ()
      in
      heading buf 3 (Printf.sprintf "M = %d" n_cores);
      fenced buf (fun ppf ->
          Fig6.render ppf (Fig6.of_sweep sweep);
          let fig7 = Fig7.of_sweep sweep in
          Fig7.render_a ppf fig7;
          Fig7.render_b ppf fig7))
    scale.sc_cores;

  heading buf 2 "Ablations";
  fenced buf (fun ppf ->
      Ablation.run_all ?jobs ?obs ppf ~seed:scale.sc_seed
        ~per_group:(max 1 (scale.sc_per_group / 5))
        ~cores:scale.sc_cores);

  if scale.sc_validate_tasksets > 0 then begin
    heading buf 2 "Analysis-vs-simulation validation";
    fenced buf (fun ppf ->
        List.iter
          (fun n_cores ->
            let result =
              Validation.run ~n_cores ~tasksets:scale.sc_validate_tasksets
                ~seed:scale.sc_seed ?jobs ?obs ()
            in
            Format.fprintf ppf "M = %d:@." n_cores;
            Validation.render ppf result)
          scale.sc_cores)
  end;
  buf

let write ?jobs ?obs scale ~path =
  let buf = generate ?jobs ?obs scale in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf))
