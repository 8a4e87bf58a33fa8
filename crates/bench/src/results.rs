//! Writes experiment results under `results/`, where plots and
//! regression checks read them instead of scraping stdout.

use s2fa_obs::Json;
use std::path::Path;

/// Writes a JSON document under `results/<name>.json` (relative to the
/// workspace root when run via cargo) and reports the path on stdout.
pub fn save(name: &str, doc: &Json) {
    let dir = Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results/: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::write(&path, doc.render()) {
        Ok(()) => println!("(results written to {})", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
