(* Command-line entry point: regenerate any table or figure of the
   paper's evaluation, run the ablations, look at a generated workload,
   and run the streaming engine over replayed or live measurements.

     tomo_cli fig3 --scale medium --seed 1 --seeds 3
     tomo_cli serve --scale small --seed 7 --replay data/smoke.trace

   Scale "paper" matches §3.2 (1000/2000 links, 1500 paths, 1000
   intervals) and takes tens of minutes; "medium" (default) preserves the
   qualitative shape in about a minute.

   Exit status: 0 on success; 123 on bad input — a malformed or missing
   file, an unusable socket — reported as one line on stderr; 124 on a
   command-line usage error; 125 on any other exception, which is a
   bug. *)

open Cmdliner

let () =
  let info =
    Cmd.info "tomo_cli" ~version:"1.0.0"
      ~doc:
        "Reproduce the evaluation of 'Shifting Network Tomography Toward \
         A Practical Goal' (CoNEXT 2011)."
  in
  exit
    (Boundary.eval info
       (Figures.cmds @ Analysis.cmds @ Serve.cmds @ Traces.cmds))
