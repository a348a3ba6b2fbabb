val now_s : unit -> float
(** Seconds on bechamel's monotonic clock, from an arbitrary origin.  Every
    deadline, timeout and rate window reads this clock: it never steps when
    the wall clock is set.  Only differences of two readings mean anything;
    never compare a reading with wall time or a file's mtime. *)
