let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
