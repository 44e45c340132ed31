//! Logical data types, scalar values, and date arithmetic.

use std::fmt;

/// Logical column type.
///
/// `Date` and `Decimal` are physically stored as 64-bit integers: dates as
/// days since 1970-01-01, decimals as fixed-point values scaled by 100
/// (TPC-H money has two fractional digits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// Days since the Unix epoch.
    Date,
    /// Fixed-point decimal scaled by 100 (e.g. cents).
    Decimal,
    /// IEEE 754 double.
    Float64,
    /// Variable-length UTF-8 string.
    Utf8,
}

impl DataType {
    /// Whether the type is physically stored in an `i64` column.
    pub fn is_integer_backed(self) -> bool {
        matches!(self, DataType::Int64 | DataType::Date | DataType::Decimal)
    }

    /// Whether values of this type have a fixed wire size (Figure 8: the
    /// "fixed" section of the serialization format).
    pub fn is_fixed_size(self) -> bool {
        !matches!(self, DataType::Utf8)
    }
}

/// A scalar value, used by expression evaluation and query results.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer / date / decimal payload.
    I64(i64),
    /// Floating-point payload.
    F64(f64),
    /// String payload.
    Str(String),
}

impl Value {
    /// The integer payload.
    ///
    /// # Panics
    /// Panics if the value is not integer-backed.
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::I64(v) => *v,
            other => panic!("expected integer value, found {other:?}"),
        }
    }

    /// The float payload.
    ///
    /// # Panics
    /// Panics if the value is not a float.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::F64(v) => *v,
            Value::I64(v) => *v as f64,
            other => panic!("expected float value, found {other:?}"),
        }
    }

    /// The string payload.
    ///
    /// # Panics
    /// Panics if the value is not a string.
    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected string value, found {other:?}"),
        }
    }

    /// True for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v:.4}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// The logical value of a fixed-point Decimal stored as i64 cents
/// (scale 100).
///
/// This is *the* canonical promotion: expression evaluation, join-key
/// hashing, partition hashing, and scalar-parameter binding must all use
/// it, or a Decimal promoted along one path will fail to equal the same
/// value promoted along another (which is how Decimal⋈Float64 joins once
/// silently matched nothing).
#[inline]
pub fn decimal_to_f64(cents: i64) -> f64 {
    cents as f64 / 100.0
}

/// Days since 1970-01-01 for a proleptic Gregorian calendar date.
///
/// Uses Howard Hinnant's `days_from_civil` algorithm.
///
/// # Panics
/// Panics on out-of-range months or days.
pub fn date_from_ymd(y: i64, m: u32, d: u32) -> i64 {
    assert!((1..=12).contains(&m), "month {m} out of range");
    assert!((1..=31).contains(&d), "day {d} out of range");
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((m + 9) % 12); // [0, 11]
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// (year, month, day) for a day number (inverse of [`date_from_ymd`]).
pub fn ymd_of_date(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Calendar year of a day number (SQL `extract(year from …)`).
pub fn year_of_date(days: i64) -> i64 {
    ymd_of_date(days).0
}

/// Add `months` calendar months to a date, clamping the day to the target
/// month's length (SQL `date + interval 'n' month` semantics).
pub fn add_months(days: i64, months: i64) -> i64 {
    let (y, m, d) = ymd_of_date(days);
    let total = y * 12 + i64::from(m) - 1 + months;
    let ny = total.div_euclid(12);
    let nm = (total.rem_euclid(12) + 1) as u32;
    let max_d = days_in_month(ny, nm);
    date_from_ymd(ny, nm, d.min(max_d))
}

fn days_in_month(y: i64, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (y % 4 == 0 && y % 100 != 0) || y % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => unreachable!("invalid month {m}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(date_from_ymd(1970, 1, 1), 0);
    }

    #[test]
    fn known_dates() {
        // TPC-H date range endpoints.
        assert_eq!(date_from_ymd(1992, 1, 1), 8035);
        assert_eq!(date_from_ymd(1998, 12, 31), 10_591);
        // Leap day.
        assert_eq!(date_from_ymd(1996, 3, 1) - date_from_ymd(1996, 2, 28), 2);
    }

    #[test]
    fn ymd_roundtrip() {
        for days in (-40_000..60_000).step_by(17) {
            let (y, m, d) = ymd_of_date(days);
            assert_eq!(date_from_ymd(y, m, d), days, "failed at {days}");
        }
    }

    #[test]
    fn year_extraction() {
        assert_eq!(year_of_date(date_from_ymd(1995, 6, 17)), 1995);
        assert_eq!(year_of_date(date_from_ymd(1969, 12, 31)), 1969);
    }

    #[test]
    fn add_months_handles_overflow_and_clamping() {
        let d = date_from_ymd(1995, 12, 15);
        assert_eq!(add_months(d, 1), date_from_ymd(1996, 1, 15));
        assert_eq!(add_months(d, 12), date_from_ymd(1996, 12, 15));
        // Clamp 31st to shorter months.
        let jan31 = date_from_ymd(1997, 1, 31);
        assert_eq!(add_months(jan31, 1), date_from_ymd(1997, 2, 28));
        // Backwards.
        assert_eq!(add_months(d, -3), date_from_ymd(1995, 9, 15));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::I64(3).as_i64(), 3);
        assert_eq!(Value::I64(3).as_f64(), 3.0);
        assert_eq!(Value::F64(2.5).as_f64(), 2.5);
        assert_eq!(Value::Str("x".into()).as_str(), "x");
        assert!(Value::Null.is_null());
        assert!(!Value::I64(0).is_null());
    }

    #[test]
    #[should_panic(expected = "expected integer")]
    fn wrong_accessor_panics() {
        Value::Str("x".into()).as_i64();
    }

    #[test]
    fn datatype_classification() {
        assert!(DataType::Date.is_integer_backed());
        assert!(DataType::Decimal.is_integer_backed());
        assert!(!DataType::Float64.is_integer_backed());
        assert!(DataType::Int64.is_fixed_size());
        assert!(!DataType::Utf8.is_fixed_size());
    }

    #[test]
    #[should_panic(expected = "month")]
    fn bad_month_panics() {
        date_from_ymd(1995, 13, 1);
    }
}
