//! The paper shapes a figure bench asserts: each check prints a PASS or
//! FAIL line, and [`Shapes::finish`] ends the bench with exit status 1,
//! naming every broken shape, once the baseline is written.

/// The shape checks of one figure bench.
#[derive(Debug, Default)]
pub struct Shapes {
    broken: Vec<String>,
}

impl Shapes {
    /// Record one check and print `# {what}: PASS` or `# {what}: FAIL`.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        let what = what.into();
        println!("# {what}: {}", if ok { "PASS" } else { "FAIL" });
        if !ok {
            self.broken.push(what);
        }
    }

    /// The checks that failed, in order.
    pub fn broken(&self) -> &[String] {
        &self.broken
    }

    /// Return if every check passed; otherwise name each broken shape
    /// of `figure` on stderr and exit with status 1. Call it after the
    /// baseline is written, so a broken run still leaves its numbers.
    pub fn finish(self, figure: &str) {
        if self.broken.is_empty() {
            return;
        }
        eprintln!("{figure}: {} paper shape(s) broken:", self.broken.len());
        for what in &self.broken {
            eprintln!("  - {what}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_checks_are_kept_in_order() {
        let mut shapes = Shapes::default();
        shapes.check("holds", true);
        shapes.check("first broken", false);
        shapes.check("second broken", false);
        assert_eq!(shapes.broken(), ["first broken", "second broken"]);
        // Nothing broken: finish returns instead of exiting.
        Shapes::default().finish("fig");
    }
}
