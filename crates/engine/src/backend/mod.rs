//! Executor backends.
//!
//! [`OmqPlan::compile`](crate::plan::OmqPlan) compiles an OMQ once into
//! an element-type system (with its bitset kernel) and the Datalog≠
//! rewriting emitted from it, and each backend runs one of the two:
//!
//! * [`native`] — the plan's bitset type kernel (budgeted, parallel
//!   across the ABoxes of a batch). Runs every plan, recursive or not.
//! * [`sql`] — executes the portable SQL emitted by
//!   `gomq_rewriting::emit_sql` from the rewriting's SCC strata (a
//!   [`gomq_datalog::ir::PlanIr`]) against the zero-dependency
//!   `gomq-sqlexec` table model. Only non-recursive plans (the
//!   [`Rewritability::FirstOrder`](gomq_datalog::ir::Rewritability)
//!   tier) are SQL-expressible; recursive plans get a typed
//!   `non-rewritable-to-sql` refusal, never a wrong answer.

pub mod native;
pub mod sql;

/// Which executor answers a request.
///
/// Parsed from the per-request `"backend"` option and from the
/// `gomq-serve --backend` default flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Backend {
    /// The bitset type kernel ([`native`]); the default.
    #[default]
    Native,
    /// The emitted-SQL path ([`sql`]); refuses recursive plans.
    Sql,
}

impl Backend {
    /// Parses a backend name; the error is a client-facing message
    /// listing the accepted values.
    pub fn from_name(name: &str) -> Result<Backend, String> {
        match name {
            "native" => Ok(Backend::Native),
            "sql" => Ok(Backend::Sql),
            other => Err(format!(
                "unknown backend \"{other}\": expected \"native\" or \"sql\""
            )),
        }
    }

    /// The wire name of this backend.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Native => "native",
            Backend::Sql => "sql",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
