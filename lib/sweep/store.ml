type t = { fd : Unix.file_descr; mutex : Mutex.t }

let append_to path = { fd = Jsonl.open_append path; mutex = Mutex.create () }

let append t record =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      (* A single O_APPEND write per record: atomic against other
         processes/domains appending to the same journal, and already
         durable-per-line — no buffering, nothing to flush. *)
      Jsonl.append_raw_line t.fd (Record.to_line record))

let close t = Unix.close t.fd

let load path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | line ->
          let line = String.trim line in
          if line = "" then go acc
          else
            (* A malformed line (e.g. a partial write from a killed
               run) is skipped, not fatal: its job simply reruns. *)
            go (match Record.of_line line with Ok r -> r :: acc | Error _ -> acc)
    in
    let records = go [] in
    close_in ic;
    records
  end
