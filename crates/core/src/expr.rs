//! Scalar expressions: the tree plans carry, its builder helpers, and
//! constant folding.
//!
//! An expression is never interpreted: every site compiles once per stage
//! into an [`ExprProgram`](crate::vm::ExprProgram), which runs
//! column-at-a-time over a row range (a morsel), mirroring how HyPer's
//! generated code keeps tuples in registers within a pipeline. Decimal
//! columns (fixed-point, scale 100) are promoted to `f64` on evaluation;
//! dates stay as day numbers (`i64`).

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by name.
    Col(String),
    /// Integer literal (also dates, via [`lit_date`]).
    LitI64(i64),
    /// Float literal (also decimal constants like `0.05`).
    LitF64(f64),
    /// String literal.
    LitStr(String),
    /// Query parameter produced by an earlier execution stage (scalar
    /// subquery results, e.g. the average quantity in Q17).
    Param(usize),
    /// Comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction of all children.
    And(Vec<Expr>),
    /// Disjunction of all children.
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// SQL `LIKE` with `%` wildcards (no `_` support).
    Like(Box<Expr>, String),
    /// String membership test (`x IN ('A', 'B', …)`).
    InStr(Box<Expr>, Vec<String>),
    /// Integer membership test (`x IN (1, 2, …)`).
    InI64(Box<Expr>, Vec<i64>),
    /// 1-based `substring(expr, start, len)`.
    Substr(Box<Expr>, usize, usize),
    /// `extract(year from expr)`.
    ExtractYear(Box<Expr>),
    /// `CASE WHEN cond THEN a ELSE b END`.
    Case(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `expr IS NULL`.
    IsNull(Box<Expr>),
}

/// Column reference.
pub fn col(name: &str) -> Expr {
    Expr::Col(name.to_string())
}

/// Integer literal.
pub fn lit(v: i64) -> Expr {
    Expr::LitI64(v)
}

/// Float literal.
pub fn litf(v: f64) -> Expr {
    Expr::LitF64(v)
}

/// String literal.
pub fn lits(v: &str) -> Expr {
    Expr::LitStr(v.to_string())
}

/// Date literal as day number.
pub fn lit_date(y: i64, m: u32, d: u32) -> Expr {
    Expr::LitI64(hsqp_storage::date_from_ymd(y, m, d))
}

/// Reference to query parameter `i` — bound by the first result row of an
/// earlier [`LogicalQuery`](crate::logical::LogicalQuery) stage (scalar
/// subquery decorrelation: parameters are numbered across stages in column
/// order).
pub fn param(i: usize) -> Expr {
    Expr::Param(i)
}

impl Expr {
    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }
    /// `self <> other`.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(other))
    }
    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(other))
    }
    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(other))
    }
    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(other))
    }
    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(other))
    }
    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        match self {
            Expr::And(mut v) => {
                v.push(other);
                Expr::And(v)
            }
            e => Expr::And(vec![e, other]),
        }
    }
    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        match self {
            Expr::Or(mut v) => {
                v.push(other);
                Expr::Or(v)
            }
            e => Expr::Or(vec![e, other]),
        }
    }
    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    /// `self + other`.
    pub fn add(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(self), Box::new(other))
    }
    /// `self - other`.
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Box::new(self), Box::new(other))
    }
    /// `self * other`.
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(self), Box::new(other))
    }
    /// `self / other`.
    pub fn div(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, Box::new(self), Box::new(other))
    }
    /// `self LIKE pattern` (`%` wildcards only).
    pub fn like(self, pattern: &str) -> Expr {
        Expr::Like(Box::new(self), pattern.to_string())
    }
    /// `self BETWEEN lo AND hi` (inclusive).
    pub fn between(self, lo: Expr, hi: Expr) -> Expr {
        self.clone().ge(lo).and(self.le(hi))
    }
    /// `self IN (strings…)`.
    pub fn in_str(self, options: &[&str]) -> Expr {
        Expr::InStr(
            Box::new(self),
            options.iter().map(|s| s.to_string()).collect(),
        )
    }
    /// `self IN (ints…)`.
    pub fn in_i64(self, options: &[i64]) -> Expr {
        Expr::InI64(Box::new(self), options.to_vec())
    }
    /// `substring(self, start, len)` with 1-based `start`.
    pub fn substr(self, start: usize, len: usize) -> Expr {
        Expr::Substr(Box::new(self), start, len)
    }
    /// `extract(year from self)`.
    pub fn year(self) -> Expr {
        Expr::ExtractYear(Box::new(self))
    }
    /// `CASE WHEN self THEN a ELSE b END`.
    pub fn case(self, then: Expr, els: Expr) -> Expr {
        Expr::Case(Box::new(self), Box::new(then), Box::new(els))
    }
    /// `self IS NULL`.
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }

    /// All column names referenced by this expression (sorted, deduplicated).
    /// The planner uses this for column pruning and plan validation.
    pub fn columns(&self) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut std::collections::BTreeSet<String>) {
        match self {
            Expr::Col(name) => {
                out.insert(name.clone());
            }
            Expr::LitI64(_) | Expr::LitF64(_) | Expr::LitStr(_) | Expr::Param(_) => {}
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::And(children) | Expr::Or(children) => {
                for c in children {
                    c.collect_columns(out);
                }
            }
            Expr::Not(c)
            | Expr::Like(c, _)
            | Expr::InStr(c, _)
            | Expr::InI64(c, _)
            | Expr::Substr(c, _, _)
            | Expr::ExtractYear(c)
            | Expr::IsNull(c) => c.collect_columns(out),
            Expr::Case(cond, then, els) => {
                cond.collect_columns(out);
                then.collect_columns(out);
                els.collect_columns(out);
            }
        }
    }

    /// Constant-fold literal-only subtrees, preserving the compiled
    /// programs' semantics exactly: integer comparisons stay integer,
    /// division promotes to float, `NaN` comparisons stay false. Foldings
    /// that would change observable behaviour (integer overflow, type
    /// errors, which fail compilation) are left untouched. `AND`/`OR` drop children
    /// known to be neutral (`TRUE` in a conjunction, `FALSE` in a
    /// disjunction); a boolean-valued subtree has no literal form and is
    /// otherwise kept as written.
    #[must_use]
    pub fn fold(&self) -> Expr {
        if let Some(v) = fold_const(self) {
            match v {
                FoldVal::I64(x) => return Expr::LitI64(x),
                FoldVal::F64(x) => return Expr::LitF64(x),
                FoldVal::Str(s) => return Expr::LitStr(s),
                // No boolean literal exists; the VM folds these at compile
                // time instead (`ConstBool`).
                FoldVal::Bool(_) => {}
            }
        }
        match self {
            Expr::Col(_) | Expr::LitI64(_) | Expr::LitF64(_) | Expr::LitStr(_) | Expr::Param(_) => {
                self.clone()
            }
            Expr::Cmp(op, a, b) => Expr::Cmp(*op, Box::new(a.fold()), Box::new(b.fold())),
            Expr::And(cs) => Expr::And(
                cs.iter()
                    .map(Expr::fold)
                    .filter(|c| !matches!(fold_const(c), Some(FoldVal::Bool(true))))
                    .collect(),
            ),
            Expr::Or(cs) => Expr::Or(
                cs.iter()
                    .map(Expr::fold)
                    .filter(|c| !matches!(fold_const(c), Some(FoldVal::Bool(false))))
                    .collect(),
            ),
            Expr::Not(c) => Expr::Not(Box::new(c.fold())),
            Expr::Arith(op, a, b) => Expr::Arith(*op, Box::new(a.fold()), Box::new(b.fold())),
            Expr::Like(c, p) => Expr::Like(Box::new(c.fold()), p.clone()),
            Expr::InStr(c, o) => Expr::InStr(Box::new(c.fold()), o.clone()),
            Expr::InI64(c, o) => Expr::InI64(Box::new(c.fold()), o.clone()),
            Expr::Substr(c, s, l) => Expr::Substr(Box::new(c.fold()), *s, *l),
            Expr::ExtractYear(c) => Expr::ExtractYear(Box::new(c.fold())),
            Expr::Case(c, t, e) => {
                Expr::Case(Box::new(c.fold()), Box::new(t.fold()), Box::new(e.fold()))
            }
            Expr::IsNull(c) => Expr::IsNull(Box::new(c.fold())),
        }
    }

    /// The largest [`Expr::Param`] index referenced by this expression, if
    /// any. The planner uses this to reject stages that reference
    /// parameters no earlier stage binds.
    pub fn max_param(&self) -> Option<usize> {
        match self {
            Expr::Param(i) => Some(*i),
            Expr::Col(_) | Expr::LitI64(_) | Expr::LitF64(_) | Expr::LitStr(_) => None,
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => a.max_param().max(b.max_param()),
            Expr::And(children) | Expr::Or(children) => {
                children.iter().filter_map(Expr::max_param).max()
            }
            Expr::Not(c)
            | Expr::Like(c, _)
            | Expr::InStr(c, _)
            | Expr::InI64(c, _)
            | Expr::Substr(c, _, _)
            | Expr::ExtractYear(c)
            | Expr::IsNull(c) => c.max_param(),
            Expr::Case(cond, then, els) => {
                cond.max_param().max(then.max_param()).max(els.max_param())
            }
        }
    }
}

/// A comparison operator as a type: what it keeps is the single definition
/// shared by constant folding and the compiled VM, so the two can never
/// disagree, and a VM kernel generic over it compiles one loop per
/// operator with the comparison inlined. Over floats every operator, `<>`
/// included, is false when an operand is NaN.
pub(crate) trait Keeps {
    /// Whether `a` and `b` satisfy the operator.
    fn keeps<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool;
}

/// The six [`CmpOp`]s as [`Keeps`] types.
pub(crate) mod op {
    use std::cmp::Ordering;

    use super::Keeps;

    /// `=`
    pub(crate) struct Eq;
    /// `<>`
    pub(crate) struct Ne;
    /// `<`
    pub(crate) struct Lt;
    /// `<=`
    pub(crate) struct Le;
    /// `>`
    pub(crate) struct Gt;
    /// `>=`
    pub(crate) struct Ge;

    impl Keeps for Eq {
        #[inline]
        fn keeps<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
            a == b
        }
    }

    impl Keeps for Ne {
        #[inline]
        fn keeps<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
            matches!(a.partial_cmp(b), Some(Ordering::Less | Ordering::Greater))
        }
    }

    impl Keeps for Lt {
        #[inline]
        fn keeps<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
            a < b
        }
    }

    impl Keeps for Le {
        #[inline]
        fn keeps<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
            a <= b
        }
    }

    impl Keeps for Gt {
        #[inline]
        fn keeps<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
            a > b
        }
    }

    impl Keeps for Ge {
        #[inline]
        fn keeps<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
            a >= b
        }
    }
}

/// Whether `a op b` holds, dispatching on `op` per call (constant folding;
/// the VM dispatches once per vector).
fn cmp_holds<T: PartialOrd + ?Sized>(op: CmpOp, a: &T, b: &T) -> bool {
    match op {
        CmpOp::Eq => op::Eq::keeps(a, b),
        CmpOp::Ne => op::Ne::keeps(a, b),
        CmpOp::Lt => op::Lt::keeps(a, b),
        CmpOp::Le => op::Le::keeps(a, b),
        CmpOp::Gt => op::Gt::keeps(a, b),
        CmpOp::Ge => op::Ge::keeps(a, b),
    }
}

/// A compiled `%`-wildcard LIKE pattern, matched over bytes (a `%`-free
/// UTF-8 part found in UTF-8 text always starts on a character boundary).
#[derive(Debug, Clone)]
pub struct LikeMatcher {
    parts: Vec<Needle>,
    anchored_start: bool,
    anchored_end: bool,
}

impl LikeMatcher {
    /// Compile `pattern`: split it at its `%`s and prepare a search for
    /// every part once.
    pub fn new(pattern: &str) -> Self {
        Self {
            parts: pattern
                .split('%')
                .filter(|p| !p.is_empty())
                .map(|p| Needle::new(p.as_bytes()))
                .collect(),
            anchored_start: !pattern.starts_with('%'),
            anchored_end: !pattern.ends_with('%'),
        }
    }

    /// Whether `text` (a string or its bytes) matches the pattern.
    #[inline]
    pub fn matches(&self, text: impl AsRef<[u8]>) -> bool {
        self.matches_bytes(text.as_ref())
    }

    /// An anchored first part is a prefix, an anchored last part a suffix
    /// of what the prefix leaves, and every other part is found, leftmost
    /// first, in what lies between.
    fn matches_bytes(&self, text: &[u8]) -> bool {
        let mut parts = self.parts.as_slice();
        if parts.is_empty() {
            // Pattern was "" (matches only empty text) or all-% (matches
            // everything).
            return !(self.anchored_start && self.anchored_end) || text.is_empty();
        }
        let mut rest = text;
        if self.anchored_start {
            let Some(tail) = rest.strip_prefix(&*parts[0].bytes) else {
                return false;
            };
            rest = tail;
            parts = &parts[1..];
            if parts.is_empty() {
                return !self.anchored_end || rest.is_empty();
            }
        }
        if self.anchored_end {
            let (last, middle) = parts.split_last().expect("a part is left");
            let Some(head) = rest.strip_suffix(&*last.bytes) else {
                return false;
            };
            rest = head;
            parts = middle;
        }
        for part in parts {
            match part.find(rest) {
                Some(at) => rest = &rest[at + part.bytes.len()..],
                None => return false,
            }
        }
        true
    }
}

/// A non-empty byte string searched for with Horspool's algorithm: when
/// the window's last byte is `c`, the next window that can hold a match
/// starts `skip[c]` bytes further on.
#[derive(Clone)]
struct Needle {
    bytes: Box<[u8]>,
    /// Shifts above 255 are stored as 255: a shorter shift is never wrong.
    skip: Box<[u8; 256]>,
}

impl Needle {
    fn new(bytes: &[u8]) -> Needle {
        let last = bytes.len() - 1;
        let cap = |shift: usize| u8::try_from(shift).unwrap_or(u8::MAX);
        let mut skip = Box::new([cap(bytes.len()); 256]);
        for (i, &b) in bytes[..last].iter().enumerate() {
            skip[usize::from(b)] = cap(last - i);
        }
        Needle {
            bytes: bytes.into(),
            skip,
        }
    }

    /// Where the first occurrence in `hay` starts.
    fn find(&self, hay: &[u8]) -> Option<usize> {
        let (&end, init) = self.bytes.split_last().expect("needles are not empty");
        let last = init.len();
        let mut at = 0;
        while let Some(&c) = hay.get(at + last) {
            if c == end && hay[at..at + last] == *init {
                return Some(at);
            }
            at += usize::from(self.skip[usize::from(c)]);
        }
        None
    }
}

impl std::fmt::Debug for Needle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", String::from_utf8_lossy(&self.bytes))
    }
}

/// The value a literal-only subtree folds to at plan/compile time.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FoldVal {
    /// Integer (also dates).
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean (no [`Expr`] literal form; consumed by the VM compiler).
    Bool(bool),
}

impl FoldVal {
    fn as_f64(&self) -> Option<f64> {
        match self {
            FoldVal::I64(x) => Some(*x as f64),
            FoldVal::F64(x) => Some(*x),
            FoldVal::Str(_) | FoldVal::Bool(_) => None,
        }
    }
}

/// Fold a literal-only expression to the value its compiled program would
/// produce. Returns `None` for anything whose value depends on the input
/// table or on query parameters, and for foldings that would change
/// observable behaviour: integer overflow (panics in debug builds, wraps in
/// release — folding would move the panic to plan time) and type errors
/// (which fail compilation).
pub(crate) fn fold_const(e: &Expr) -> Option<FoldVal> {
    match e {
        Expr::Col(_) | Expr::Param(_) => None,
        Expr::LitI64(v) => Some(FoldVal::I64(*v)),
        Expr::LitF64(v) => Some(FoldVal::F64(*v)),
        Expr::LitStr(s) => Some(FoldVal::Str(s.clone())),
        Expr::Cmp(op, a, b) => {
            let (a, b) = (fold_const(a)?, fold_const(b)?);
            let ok = match (&a, &b) {
                (FoldVal::I64(x), FoldVal::I64(y)) => cmp_holds(*op, x, y),
                (FoldVal::Str(x), FoldVal::Str(y)) => cmp_holds(*op, x.as_bytes(), y.as_bytes()),
                // NaN comparisons are false for every operator, including
                // `<>`, exactly like the VM's float kernels.
                _ => cmp_holds(*op, &a.as_f64()?, &b.as_f64()?),
            };
            Some(FoldVal::Bool(ok))
        }
        Expr::And(children) => {
            let mut acc = true;
            for c in children {
                match fold_const(c)? {
                    FoldVal::Bool(b) => acc = acc && b,
                    _ => return None,
                }
            }
            Some(FoldVal::Bool(acc))
        }
        Expr::Or(children) => {
            let mut acc = false;
            for c in children {
                match fold_const(c)? {
                    FoldVal::Bool(b) => acc = acc || b,
                    _ => return None,
                }
            }
            Some(FoldVal::Bool(acc))
        }
        Expr::Not(c) => match fold_const(c)? {
            FoldVal::Bool(b) => Some(FoldVal::Bool(!b)),
            _ => None,
        },
        Expr::Arith(op, a, b) => {
            let (a, b) = (fold_const(a)?, fold_const(b)?);
            if let (FoldVal::I64(x), FoldVal::I64(y)) = (&a, &b) {
                if *op != ArithOp::Div {
                    // Checked: folding an overflow would turn a debug-build
                    // execution panic into a plan-time panic.
                    let v = match op {
                        ArithOp::Add => x.checked_add(*y),
                        ArithOp::Sub => x.checked_sub(*y),
                        ArithOp::Mul => x.checked_mul(*y),
                        ArithOp::Div => unreachable!(),
                    }?;
                    return Some(FoldVal::I64(v));
                }
            }
            let (x, y) = (a.as_f64()?, b.as_f64()?);
            Some(FoldVal::F64(match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => x * y,
                ArithOp::Div => x / y,
            }))
        }
        Expr::Like(c, pattern) => match fold_const(c)? {
            FoldVal::Str(s) => Some(FoldVal::Bool(LikeMatcher::new(pattern).matches(&s))),
            _ => None,
        },
        Expr::InStr(c, options) => match fold_const(c)? {
            FoldVal::Str(s) => Some(FoldVal::Bool(options.contains(&s))),
            _ => None,
        },
        Expr::InI64(c, options) => match fold_const(c)? {
            FoldVal::I64(x) => Some(FoldVal::Bool(options.contains(&x))),
            _ => None,
        },
        Expr::Substr(c, start, len) => match fold_const(c)? {
            FoldVal::Str(s) => {
                if *start == 0 {
                    return None; // does not compile; keep the error
                }
                let from = (*start - 1).min(s.len());
                let to = (from + *len).min(s.len());
                Some(FoldVal::Str(s.get(from..to).unwrap_or("").to_string()))
            }
            _ => None,
        },
        Expr::ExtractYear(c) => match fold_const(c)? {
            FoldVal::I64(d) => Some(FoldVal::I64(hsqp_storage::year_of_date(d))),
            _ => None,
        },
        Expr::Case(cond, then, els) => {
            // Programs are strict in both branches, so fold only when all
            // three parts fold (a non-folding branch could panic).
            let (c, t, e) = (fold_const(cond)?, fold_const(then)?, fold_const(els)?);
            let FoldVal::Bool(c) = c else { return None };
            if let (FoldVal::I64(t), FoldVal::I64(e)) = (&t, &e) {
                return Some(FoldVal::I64(if c { *t } else { *e }));
            }
            let (t, e) = (t.as_f64()?, e.as_f64()?);
            Some(FoldVal::F64(if c { t } else { e }))
        }
        // A folded operand is a literal, and literals are never NULL.
        Expr::IsNull(c) => fold_const(c).map(|_| FoldVal::Bool(false)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn like(pattern: &str, text: &str) -> bool {
        LikeMatcher::new(pattern).matches(text)
    }

    #[test]
    fn like_patterns() {
        assert!(like("PROMO%", "PROMO POLISHED TIN"));
        assert!(!like("PROMO%", "STANDARD TIN"));
        assert!(like("%BRASS", "LARGE PLATED BRASS"));
        assert!(like("%special%requests%", "xx special yy requests zz"));
        assert!(!like("%special%requests%", "requests then special"));
        assert!(like("green", "green"));
        assert!(!like("green", "greenish"));
    }

    #[test]
    fn like_finds_overlapping_and_self_repeating_parts() {
        // A window that fails on its last byte must not skip the match
        // that starts one byte later.
        assert!(like("%aab%", "aaab"));
        assert!(like("%abab%", "abaabab"));
        assert!(!like("%abab%", "abaaba"));
        assert!(like("%aa%aa%", "aaaa"));
        assert!(!like("%aa%aa%", "aaa"));
        assert!(like("%xy%", "xy"));
        assert!(like("%b%", "aaab"));
        assert!(!like("%b%", "aaaa"));
        let long = "q".repeat(300);
        assert!(like(&format!("%{long}%"), &format!("zz{long}z")));
        assert!(!like(&format!("%{long}%"), &long[1..]));
    }

    #[test]
    fn like_anchors_both_ends_without_overlap() {
        assert!(like("a%b", "ab"));
        assert!(like("a%b", "axxb"));
        assert!(!like("a%b", "a"));
        assert!(!like("a%a", "a"));
        assert!(like("a%a", "aa"));
        assert!(like("ab%b%ab", "abbab"));
        assert!(!like("ab%b%ab", "abab"));
        assert!(like("a%%b", "ab"));
    }

    #[test]
    fn like_edge_patterns() {
        for text in ["", "x", "any text"] {
            assert!(like("%", text));
            assert!(like("%%", text));
        }
        assert!(like("", ""));
        assert!(!like("", "x"));
        assert!(!like("x", ""));
        assert!(!like("%x", ""));
    }

    #[test]
    fn like_matches_multibyte_text_bytewise() {
        assert!(like("%é%", "café au lait"));
        assert!(like("caf%", "café"));
        assert!(like("%日本%", "これは日本語"));
        assert!(!like("%日本%", "日 本"));
        assert!(like("日%語", "日本語"));
        assert!(like("%ße", "straße"));
        assert!(!like("%ß", "straße"));
    }

    #[test]
    fn columns_walks_every_variant() {
        let e = col("a")
            .gt(lit(1))
            .and(col("b").like("x%"))
            .or(col("c").add(col("d")).eq(litf(2.0)))
            .and(col("e").is_null().not())
            .and(col("f").substr(1, 2).in_str(&["q"]))
            .and(col("g").year().in_i64(&[1995]))
            .and(col("h").case(col("i"), Expr::Param(0)).ne(lit(0)));
        let cols: Vec<String> = e.columns().into_iter().collect();
        assert_eq!(cols, ["a", "b", "c", "d", "e", "f", "g", "h", "i"]);
        assert!(lit(1).columns().is_empty());
    }

    #[test]
    fn fold_collapses_literal_subtrees() {
        assert_eq!(lit(2).add(lit(3)).fold(), lit(5));
        assert_eq!(lit(10).div(lit(4)).fold(), litf(2.5));
        assert_eq!(lits("ab").substr(1, 1).fold(), lits("a"));
        assert_eq!(lit_date(1995, 6, 1).year().fold(), lit(1995));
        // Mixed subtrees fold only their constant parts.
        assert_eq!(
            col("k").add(lit(2).mul(lit(3))).fold(),
            col("k").add(lit(6))
        );
    }

    #[test]
    fn fold_preserves_program_semantics() {
        // Integer comparison stays integer; float NaN comparisons stay false.
        assert_eq!(fold_const(&lit(3).lt(lit(4))), Some(FoldVal::Bool(true)));
        assert_eq!(
            fold_const(&litf(f64::NAN).ne(litf(1.0))),
            Some(FoldVal::Bool(false))
        );
        // Division by zero promotes to float infinity, it does not panic.
        assert_eq!(
            fold_const(&lit(1).div(lit(0))),
            Some(FoldVal::F64(f64::INFINITY))
        );
        // Overflow does not fold (it panics at run time in debug builds).
        assert_eq!(fold_const(&lit(i64::MAX).add(lit(1))), None);
        // Type errors do not fold (they fail compilation).
        assert_eq!(fold_const(&lits("x").add(lit(1))), None);
        assert_eq!(fold_const(&Expr::And(vec![lit(1)])), None);
    }

    #[test]
    fn fold_drops_neutral_boolean_children() {
        let e = col("k").gt(lit(2)).and(lit(1).lt(lit(2)));
        assert_eq!(e.fold(), Expr::And(vec![col("k").gt(lit(2))]));
        let e = col("k").gt(lit(2)).or(lit(2).lt(lit(1)));
        assert_eq!(e.fold(), Expr::Or(vec![col("k").gt(lit(2))]));
    }
}
