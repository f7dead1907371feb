//! Scalar expressions evaluated against rows.

use crate::error::{RelError, RelResult};
use crate::schema::TableSchema;
use crate::table::Row;
use crate::types::DataType;
use crate::value::Value;
use std::fmt;

/// Binary operators supported by the expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Equality (`=`).
    Eq,
    /// Inequality (`<>` / `!=`).
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// SQL LIKE with `%` and `_` wildcards (case-insensitive).
    Like,
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Eq => "=",
            BinaryOp::Ne => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Like => "LIKE",
        };
        f.write_str(s)
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference by name (possibly qualified, e.g. `bioentry.accession`).
    Column(String),
    /// A literal value.
    Literal(Value),
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// `IS NULL` test.
    IsNull(Box<Expr>),
    /// `IS NOT NULL` test.
    IsNotNull(Box<Expr>),
}

impl Expr {
    /// Column reference helper.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Binary operation helper.
    pub fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Eq, self, other)
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::And, self, other)
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Or, self, other)
    }

    /// `self LIKE pattern`.
    pub fn like(self, pattern: impl Into<String>) -> Expr {
        Expr::binary(BinaryOp::Like, self, Expr::lit(Value::text(pattern.into())))
    }

    /// Names of all columns referenced by this expression.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Column(c) => out.push(c.as_str()),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(e) | Expr::IsNull(e) | Expr::IsNotNull(e) => e.collect_columns(out),
        }
    }

    /// Evaluate against a row interpreted under the given schema.
    pub fn eval(&self, schema: &TableSchema, row: &Row) -> RelResult<Value> {
        match self {
            Expr::Column(name) => {
                // Exact match, or an unqualified reference to a qualified
                // column (`accession` matching `bioentry.accession`) as long
                // as the suffix is unambiguous. Shared with the static
                // analyzer via [`TableSchema::resolve`].
                match schema.resolve(name) {
                    crate::schema::ColumnResolution::Index(idx) => Ok(row[idx].clone()),
                    _ => Err(RelError::UnknownColumn(name.clone())),
                }
            }
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Binary { op, left, right } => {
                let l = left.eval(schema, row)?;
                let r = right.eval(schema, row)?;
                eval_binary(*op, &l, &r)
            }
            Expr::Not(e) => {
                let v = e.eval(schema, row)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Bool(b) => Ok(Value::Bool(!b)),
                    other => Err(RelError::Eval(format!(
                        "NOT applied to non-boolean '{other}'"
                    ))),
                }
            }
            Expr::IsNull(e) => Ok(Value::Bool(e.eval(schema, row)?.is_null())),
            Expr::IsNotNull(e) => Ok(Value::Bool(!e.eval(schema, row)?.is_null())),
        }
    }

    /// Evaluate as a predicate: NULL counts as false (SQL three-valued logic
    /// collapsed for filtering purposes).
    pub fn eval_predicate(&self, schema: &TableSchema, row: &Row) -> RelResult<bool> {
        match self.eval(schema, row)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(RelError::Eval(format!(
                "predicate did not evaluate to a boolean: '{other}'"
            ))),
        }
    }

    /// Best-effort result type, used when synthesizing projection schemas.
    pub fn result_type(&self, schema: &TableSchema) -> DataType {
        match self {
            Expr::Column(name) => schema
                .column(name)
                .map(|c| c.data_type)
                .unwrap_or(DataType::Text),
            Expr::Literal(v) => v.data_type().unwrap_or(DataType::Text),
            Expr::Binary { op, left, right } => match op {
                BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div => {
                    left.result_type(schema).unify(right.result_type(schema))
                }
                _ => DataType::Boolean,
            },
            Expr::Not(_) | Expr::IsNull(_) | Expr::IsNotNull(_) => DataType::Boolean,
        }
    }
}

/// Split a predicate into its AND-ed conjuncts: the decomposition both the
/// optimizer and the analyzer reason over.
pub(crate) fn split_conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Binary {
        op: BinaryOp::And,
        left,
        right,
    } = e
    {
        split_conjuncts(left, out);
        split_conjuncts(right, out);
    } else {
        out.push(e.clone());
    }
}

/// Match `column <cmp> literal` in either orientation, flipping the operator
/// when the literal is on the left.
pub(crate) fn as_column_cmp_literal(e: &Expr) -> Option<(&str, BinaryOp, &Value)> {
    let Expr::Binary { op, left, right } = e else {
        return None;
    };
    let flipped = match op {
        BinaryOp::Eq => BinaryOp::Eq,
        BinaryOp::Ne => BinaryOp::Ne,
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::Le => BinaryOp::Ge,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::Ge => BinaryOp::Le,
        _ => return None,
    };
    match (&**left, &**right) {
        (Expr::Column(c), Expr::Literal(v)) => Some((c.as_str(), *op, v)),
        (Expr::Literal(v), Expr::Column(c)) => Some((c.as_str(), flipped, v)),
        _ => None,
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => f.write_str(c),
            Expr::Literal(Value::Text(s)) => write!(f, "'{s}'"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::IsNull(e) => write!(f, "({e} IS NULL)"),
            Expr::IsNotNull(e) => write!(f, "({e} IS NOT NULL)"),
        }
    }
}

fn eval_binary(op: BinaryOp, l: &Value, r: &Value) -> RelResult<Value> {
    use BinaryOp::*;
    match op {
        And | Or => {
            let lb = l.as_bool();
            let rb = r.as_bool();
            match (op, lb, rb) {
                (And, Some(false), _) | (And, _, Some(false)) => Ok(Value::Bool(false)),
                (Or, Some(true), _) | (Or, _, Some(true)) => Ok(Value::Bool(true)),
                (_, Some(a), Some(b)) => Ok(Value::Bool(if op == And { a && b } else { a || b })),
                _ => Ok(Value::Null),
            }
        }
        Eq | Ne | Lt | Le | Gt | Ge => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let ord = l.cmp(r);
            let b = match op {
                Eq => ord == std::cmp::Ordering::Equal,
                Ne => ord != std::cmp::Ordering::Equal,
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        Add | Sub | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            match (l, r) {
                (Value::Int(a), Value::Int(b)) => Ok(match op {
                    Add => Value::Int(a.wrapping_add(*b)),
                    Sub => Value::Int(a.wrapping_sub(*b)),
                    Mul => Value::Int(a.wrapping_mul(*b)),
                    Div => {
                        if *b == 0 {
                            return Err(RelError::Eval("division by zero".into()));
                        }
                        Value::Int(a / b)
                    }
                    _ => unreachable!(),
                }),
                _ => {
                    let a = l
                        .as_float()
                        .ok_or_else(|| RelError::Eval(format!("non-numeric operand '{l}'")))?;
                    let b = r
                        .as_float()
                        .ok_or_else(|| RelError::Eval(format!("non-numeric operand '{r}'")))?;
                    match op {
                        Add => Ok(Value::float(a + b)),
                        Sub => Ok(Value::float(a - b)),
                        Mul => Ok(Value::float(a * b)),
                        Div => {
                            if b == 0.0 {
                                Err(RelError::Eval("division by zero".into()))
                            } else {
                                Ok(Value::float(a / b))
                            }
                        }
                        _ => unreachable!(),
                    }
                }
            }
        }
        Like => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let text = l.render().to_ascii_lowercase();
            let pattern = r.render().to_ascii_lowercase();
            Ok(Value::Bool(like_match(&text, &pattern)))
        }
    }
}

/// SQL LIKE matching with `%` (any run) and `_` (any single char).
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => (0..=t.len()).any(|i| rec(&t[i..], rest)),
            Some(('_', rest)) => !t.is_empty() && rec(&t[1..], rest),
            Some((c, rest)) => t.first() == Some(c) && rec(&t[1..], rest),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn schema() -> TableSchema {
        TableSchema::of(vec![
            ColumnDef::int("id"),
            ColumnDef::text("accession"),
            ColumnDef::float("score"),
        ])
    }

    fn row() -> Row {
        vec![Value::Int(7), Value::text("P12345"), Value::Float(0.5)]
    }

    #[test]
    fn column_and_literal_eval() {
        let s = schema();
        let r = row();
        assert_eq!(Expr::col("id").eval(&s, &r).unwrap(), Value::Int(7));
        assert_eq!(
            Expr::lit(Value::text("x")).eval(&s, &r).unwrap(),
            Value::text("x")
        );
        assert!(Expr::col("missing").eval(&s, &r).is_err());
    }

    #[test]
    fn unqualified_reference_resolves_suffix() {
        let s = TableSchema::of(vec![
            ColumnDef::text("bioentry.accession"),
            ColumnDef::int("dbref_id"),
        ]);
        let r = vec![Value::text("P1"), Value::Int(1)];
        assert_eq!(
            Expr::col("accession").eval(&s, &r).unwrap(),
            Value::text("P1")
        );
    }

    #[test]
    fn ambiguous_suffix_is_an_error() {
        let s = TableSchema::of(vec![
            ColumnDef::text("a.accession"),
            ColumnDef::text("b.accession"),
        ]);
        let r = vec![Value::text("x"), Value::text("y")];
        assert!(Expr::col("accession").eval(&s, &r).is_err());
    }

    #[test]
    fn comparison_operators() {
        let s = schema();
        let r = row();
        let e = Expr::col("id").eq(Expr::lit(7i64));
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Bool(true));
        let e = Expr::binary(BinaryOp::Gt, Expr::col("score"), Expr::lit(1.0));
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Bool(false));
        let e = Expr::binary(BinaryOp::Le, Expr::col("id"), Expr::lit(7i64));
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_comparisons_are_null_and_filter_false() {
        let s = TableSchema::of(vec![ColumnDef::text("x")]);
        let r = vec![Value::Null];
        let e = Expr::col("x").eq(Expr::lit("a"));
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Null);
        assert!(!e.eval_predicate(&s, &r).unwrap());
        assert_eq!(
            Expr::IsNull(Box::new(Expr::col("x"))).eval(&s, &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::IsNotNull(Box::new(Expr::col("x")))
                .eval(&s, &r)
                .unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        let s = schema();
        let r = row();
        let e = Expr::binary(BinaryOp::Add, Expr::col("id"), Expr::lit(3i64));
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Int(10));
        let e = Expr::binary(BinaryOp::Mul, Expr::col("score"), Expr::lit(4i64));
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Float(2.0));
        let e = Expr::binary(BinaryOp::Div, Expr::col("id"), Expr::lit(0i64));
        assert!(e.eval(&s, &r).is_err());
    }

    #[test]
    fn and_or_short_circuit_with_null() {
        let s = TableSchema::of(vec![ColumnDef::text("x")]);
        let r = vec![Value::Null];
        // NULL AND false = false, NULL OR true = true
        let null_cmp = Expr::col("x").eq(Expr::lit("a"));
        let e = null_cmp.clone().and(Expr::lit(false));
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Bool(false));
        let e = null_cmp.clone().or(Expr::lit(true));
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Bool(true));
        let e = null_cmp.clone().and(Expr::lit(true));
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Null);
    }

    #[test]
    fn like_matching() {
        assert!(like_match("uniprot:p11140", "uniprot:%"));
        assert!(like_match("p12345", "p____5"));
        assert!(!like_match("p12345", "q%"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", ""));
        let s = schema();
        let r = row();
        let e = Expr::col("accession").like("P12%");
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn not_requires_boolean() {
        let s = schema();
        let r = row();
        let e = Expr::Not(Box::new(Expr::col("accession")));
        assert!(e.eval(&s, &r).is_err());
        let e = Expr::Not(Box::new(Expr::lit(true)));
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Bool(false));
    }

    #[test]
    fn referenced_columns_collects_all() {
        let e = Expr::col("a")
            .eq(Expr::col("b"))
            .and(Expr::IsNull(Box::new(Expr::col("c"))));
        let mut cols = e.referenced_columns();
        cols.sort_unstable();
        assert_eq!(cols, vec!["a", "b", "c"]);
    }

    #[test]
    fn display_round_trip_is_readable() {
        let e = Expr::col("accession")
            .like("P%")
            .and(Expr::col("id").eq(Expr::lit(1i64)));
        assert_eq!(e.to_string(), "((accession LIKE 'P%') AND (id = 1))");
    }
}
