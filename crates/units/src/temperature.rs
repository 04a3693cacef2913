//! Temperature with explicit Celsius/Kelvin conversions.
//!
//! The paper sweeps 27 / 60 / 90 °C; device physics wants kelvin. Keeping
//! the two scales behind one type removes a whole class of off-by-273
//! bugs from the characterization flows.

/// An absolute temperature, stored internally in kelvin.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Temperature(f64);

impl Temperature {
    /// The paper's reference temperature, 27 °C.
    pub const ROOM: Self = Self(300.15);

    /// Creates a temperature from degrees Celsius.
    ///
    /// # Panics
    ///
    /// Panics if the result would be below absolute zero.
    pub fn from_celsius(celsius: f64) -> Self {
        let kelvin = celsius + 273.15;
        assert!(
            kelvin >= 0.0,
            "temperature below absolute zero: {celsius} C"
        );
        Self(kelvin)
    }

    /// Returns the temperature in kelvin.
    pub const fn as_kelvin(self) -> f64 {
        self.0
    }

    /// Returns the temperature in degrees Celsius.
    pub fn as_celsius(self) -> f64 {
        self.0 - 273.15
    }
}

impl Default for Temperature {
    fn default() -> Self {
        Self::ROOM
    }
}

impl core::fmt::Display for Temperature {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.2} C", self.as_celsius())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn celsius_kelvin_round_trip() {
        let t = Temperature::from_celsius(27.0);
        assert!((t.as_kelvin() - 300.15).abs() < 1e-12);
        assert!((t.as_celsius() - 27.0).abs() < 1e-12);
        assert_eq!(Temperature::default(), Temperature::ROOM);
    }

    #[test]
    #[should_panic(expected = "absolute zero")]
    fn rejects_below_absolute_zero() {
        let _ = Temperature::from_celsius(-300.0);
    }

    #[test]
    fn display_shows_celsius() {
        assert_eq!(format!("{}", Temperature::from_celsius(60.0)), "60.00 C");
    }
}
