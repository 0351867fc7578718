type klass =
  | File_system_checking
  | Network_packet_monitoring
  | Hardware_event_monitoring
  | Application_specific_checking

type entry = {
  klass : klass;
  description : string;
  example_tools : string list;
  implemented_by : string option;
}

let klass_name = function
  | File_system_checking -> "File-system checking"
  | Network_packet_monitoring -> "Network packet monitoring"
  | Hardware_event_monitoring -> "Hardware event monitoring"
  | Application_specific_checking -> "Application specific checking"

let table1 =
  [ { klass = File_system_checking;
      description = "Detect tampering of stored data (integrity database)";
      example_tools = [ "Tripwire"; "AIDE" ];
      implemented_by = Some "Security.Integrity_checker" };
    { klass = Network_packet_monitoring;
      description = "Inspect traffic for known-bad or anomalous flows";
      example_tools = [ "Bro"; "Snort" ];
      implemented_by = None };
    { klass = Hardware_event_monitoring;
      description =
        "Statistical checks over performance-monitor counters";
      example_tools = [ "perf"; "OProfile" ];
      implemented_by = None };
    { klass = Application_specific_checking;
      description =
        "Behavior-based detection (kernel-module profile, syscall \
         distributions, ...)";
      example_tools = [ "custom checkers" ];
      implemented_by = Some "Security.Kmod_checker" } ]

let pp_entry ppf e =
  Format.fprintf ppf "@[<v 2>%s:@ %s@ tools: %s@ implemented by: %s@]"
    (klass_name e.klass) e.description
    (String.concat ", " e.example_tools)
    (Option.value e.implemented_by ~default:"(not exercised here)")

let pp_table ppf () =
  Format.fprintf ppf "@[<v>Table 1: Example of Security Tasks@ @ ";
  List.iter (fun e -> Format.fprintf ppf "%a@ @ " pp_entry e) table1;
  Format.fprintf ppf "@]"
