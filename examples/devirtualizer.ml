(** Devirtualizer: use call-graph precision to find virtual call sites that
    can be devirtualized (a single possible target) — the paper's #poly-call
    client, framed as the program-optimization use case. Built on the
    {!Csc_checks.Devirt} pass: [sites] lists the devirtualization
    opportunities, [check] emits the poly-call diagnostics.

    The example also shows, honestly, where each approach earns its keep:
    - direct container access: Cut-Shortcut recovers per-container precision
      at context-insensitive cost;
    - container access wrapped behind a registry object: the registry's
      [this] merges inside the wrapper, which is context-*sensitivity*
      territory (2obj separates it, CSC does not claim to).

    Run with: dune exec examples/devirtualizer.exe *)

module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver
module Run = Csc_driver.Run
module Devirt = Csc_checks.Devirt
module Diagnostic = Csc_checks.Diagnostic

let source =
  {|
class Renderer {
  Object render() { return null; }
}
class HtmlRenderer extends Renderer {
  Object render() { return "html"; }
}
class TextRenderer extends Renderer {
  Object render() { return "text"; }
}
class PdfRenderer extends Renderer {
  Object render() { return "pdf"; }
}

class Registry {
  ArrayList renderers;
  Registry(ArrayList rs) { this.renderers = rs; }
  Renderer pick(int i) {
    Renderer r = (Renderer) this.renderers.get(i);
    return r;
  }
}

class Main {
  static void main() {
    // --- direct container access ---
    ArrayList webRenderers = new ArrayList();
    webRenderers.add(new HtmlRenderer());
    webRenderers.add(new TextRenderer());
    ArrayList exportRenderers = new ArrayList();
    exportRenderers.add(new PdfRenderer());

    Renderer w = (Renderer) webRenderers.get(0);
    Object page = w.render();       // 2 targets: genuinely polymorphic

    Renderer e = (Renderer) exportRenderers.get(0);
    Object doc = e.render();        // 1 target: devirtualizable

    // --- the same, behind a registry wrapper ---
    Registry webReg = new Registry(webRenderers);
    Registry exportReg = new Registry(exportRenderers);
    Renderer w2 = webReg.pick(0);
    Object page2 = w2.render();
    Renderer e2 = exportReg.pick(0);
    Object doc2 = e2.render();

    System.print(page);
    System.print(doc);
    System.print(page2);
    System.print(doc2);
  }
}
|}

let describe name (p : Ir.program) (r : Solver.result) =
  Fmt.pr "%-6s:@." name;
  (* the library pass: every reachable virtual site with its target count *)
  List.iter
    (fun (si : Devirt.site_info) ->
      let cs = Ir.call p si.si_site in
      if (Ir.metho p cs.cs_target).m_name = "render" then
        Fmt.pr "  render() at line %2d: %d target(s)%s@." cs.cs_line
          (List.length si.si_targets)
          (if List.length si.si_targets = 1 then "  -> devirtualize" else ""))
    (List.sort
       (fun (a : Devirt.site_info) b ->
         compare (Ir.call p a.si_site).cs_line (Ir.call p b.si_site).cs_line)
       (Devirt.sites p r));
  (* and the missed opportunities, as diagnostics *)
  List.iter
    (fun d -> Fmt.pr "  %a@." (Diagnostic.pp_text p) d)
    (Devirt.check p r)

let () =
  let p = Csc_lang.Frontend.compile_string source in
  List.iter
    (fun a ->
      describe (Run.name a) p (Option.get (Run.run_spec (Run.spec a) p).o_result))
    [ Run.Imp_ci; Run.Imp_csc; Run.Imp_kobj 2 ];
  Fmt.pr
    "@.CSC devirtualizes the direct export-path call at CI cost; the@.";
  Fmt.pr
    "registry-wrapped calls additionally need receiver contexts (2obj).@."
