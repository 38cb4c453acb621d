(** Append-only JSONL result store, doubling as the resume journal.

    Each record is one line, emitted as a single [write(2)] on an
    [O_APPEND] descriptor (see {!Jsonl.append_raw_line}), so a sweep
    killed at any point loses at most the jobs still in flight, and
    {e several writers} — domains in one process, or separate
    processes such as a resident daemon plus a CLI sweep — can append
    to the same journal without tearing each other's lines.
    {!append} is additionally mutex-protected, so one store handle may
    be shared by the scheduler's event callback across workers. *)

type t

val append_to : string -> t
(** Open (creating if necessary) for appending. *)

val append : t -> Record.t -> unit
(** Write one record as a line and flush.  Thread-safe. *)

val close : t -> unit

val load : string -> Record.t list
(** All parseable records in file order; [[]] if the file does not
    exist.  Malformed lines (e.g. a torn write from a killed run) are
    skipped silently — their jobs simply run again. *)
