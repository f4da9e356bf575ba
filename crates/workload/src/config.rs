//! Scenario configuration: fleet size, duration, weather and event rates.

/// Weather regimes of the paper's Figure 5b.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Weather {
    /// Dry roads, normal speeds, baseline jam rate.
    #[default]
    Clear,
    /// Reduced speeds, noticeably more congestion.
    Rainy,
    /// Strongly reduced speeds, frequent congestion, vehicles keep larger
    /// headways (fewer convoys).
    Snowy,
}

impl Weather {
    /// All weather regimes in the order of the paper's Figure 5b.
    pub const ALL: [Weather; 3] = [Weather::Clear, Weather::Rainy, Weather::Snowy];

    /// Multiplier applied to free-flow vehicle speed.
    pub fn speed_factor(&self) -> f64 {
        match self {
            Weather::Clear => 1.0,
            Weather::Rainy => 0.8,
            Weather::Snowy => 0.55,
        }
    }

    /// Multiplier applied to the traffic-jam spawn rate.
    pub fn jam_factor(&self) -> f64 {
        match self {
            Weather::Clear => 1.0,
            Weather::Rainy => 1.8,
            Weather::Snowy => 3.0,
        }
    }

    /// Multiplier applied to the convoy-flow spawn rate (vehicles avoid
    /// travelling closely in bad weather).
    pub fn convoy_factor(&self) -> f64 {
        match self {
            Weather::Clear => 1.0,
            Weather::Rainy => 0.9,
            Weather::Snowy => 0.55,
        }
    }

    /// Label used in benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            Weather::Clear => "clear",
            Weather::Rainy => "rainy",
            Weather::Snowy => "snowy",
        }
    }
}

impl std::fmt::Display for Weather {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Time-of-day regimes, following the paper's split of a day.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    /// 6 am – 10 am and 5 pm – 8 pm.
    Peak,
    /// 10 am – 5 pm.
    Work,
    /// 8 pm – 6 am.
    Casual,
}

impl Regime {
    /// All regimes in the order of the paper's Figure 5a.
    pub const ALL: [Regime; 3] = [Regime::Peak, Regime::Work, Regime::Casual];

    /// The regime governing a given minute of the day (`0..1440`).
    pub fn for_minute_of_day(minute: u32) -> Regime {
        let hour = (minute % 1440) / 60;
        match hour {
            6..=9 | 17..=19 => Regime::Peak,
            10..=16 => Regime::Work,
            _ => Regime::Casual,
        }
    }

    /// Label used in benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            Regime::Peak => "peak time",
            Regime::Work => "work time",
            Regime::Casual => "casual time",
        }
    }
}

impl std::fmt::Display for Regime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Expected number of congregation events spawned per hour, per regime.
///
/// These rates, together with the weather multipliers, are the calibration
/// knobs that reproduce the *shape* of the paper's Figure 5 (see DESIGN.md
/// §5 for the substitution rationale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRates {
    /// Traffic jams per hour during peak / work / casual time.
    pub jams_per_hour: [f64; 3],
    /// Venue (drop-off) events per hour during peak / work / casual time.
    pub venues_per_hour: [f64; 3],
    /// Convoy flows per hour during peak / work / casual time.
    pub convoys_per_hour: [f64; 3],
}

impl EventRates {
    /// Rates calibrated against the paper's Figure 5a: many jams in peak
    /// time, many venues (but few jams) in casual time, little of either
    /// during work time.
    pub fn city_default() -> Self {
        EventRates {
            //                  peak  work  casual
            jams_per_hour: [9.0, 2.0, 1.5],
            venues_per_hour: [3.0, 2.0, 8.0],
            convoys_per_hour: [6.0, 1.5, 5.0],
        }
    }

    fn index(regime: Regime) -> usize {
        match regime {
            Regime::Peak => 0,
            Regime::Work => 1,
            Regime::Casual => 2,
        }
    }

    /// Jam rate for a regime (events per hour).
    pub fn jams(&self, regime: Regime) -> f64 {
        self.jams_per_hour[Self::index(regime)]
    }

    /// Venue rate for a regime (events per hour).
    pub fn venues(&self, regime: Regime) -> f64 {
        self.venues_per_hour[Self::index(regime)]
    }

    /// Convoy rate for a regime (events per hour).
    pub fn convoys(&self, regime: Regime) -> f64 {
        self.convoys_per_hour[Self::index(regime)]
    }
}

impl Default for EventRates {
    fn default() -> Self {
        EventRates::city_default()
    }
}

/// Full description of a synthetic scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Seed for the deterministic random generator.
    pub seed: u64,
    /// Number of taxis in the fleet.
    pub num_taxis: usize,
    /// Length of the scenario in minutes (one sample per taxi per minute).
    pub duration: u32,
    /// Minute of day at which the scenario starts (`0 = midnight`); the
    /// time-of-day regimes are derived from this.
    pub start_minute_of_day: u32,
    /// Weather regime, affecting speeds and event rates.
    pub weather: Weather,
    /// Side length of the (square) simulated city in metres.
    pub area_size: f64,
    /// Event spawn rates per regime.
    pub event_rates: EventRates,
}

impl ScenarioConfig {
    /// A tiny scene (a few dozen taxis, one hour) for examples and tests.
    pub fn small_demo(seed: u64) -> Self {
        ScenarioConfig {
            seed,
            num_taxis: 60,
            duration: 60,
            start_minute_of_day: 8 * 60, // morning peak
            weather: Weather::Clear,
            area_size: 5_000.0,
            event_rates: EventRates::city_default(),
        }
    }

    /// A full synthetic day (1440 minutes) with the given weather, scaled to
    /// a fleet that keeps the effectiveness experiments tractable on one
    /// machine.
    pub fn single_day(seed: u64, weather: Weather) -> Self {
        ScenarioConfig {
            seed,
            num_taxis: 1_200,
            duration: 1_440,
            start_minute_of_day: 0,
            weather,
            area_size: 20_000.0,
            event_rates: EventRates::city_default(),
        }
    }

    /// A configurable slice of a day, used by the efficiency sweeps
    /// (Figure 6) where the object count and duration are the variables.
    pub fn efficiency_slice(seed: u64, num_taxis: usize, duration: u32) -> Self {
        ScenarioConfig {
            seed,
            num_taxis,
            duration,
            start_minute_of_day: 7 * 60,
            weather: Weather::Clear,
            area_size: 12_000.0,
            event_rates: EventRates::city_default(),
        }
    }

    /// Returns a copy with a different fleet size.
    pub fn with_taxis(mut self, num_taxis: usize) -> Self {
        self.num_taxis = num_taxis;
        self
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig::small_demo(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regime_boundaries_match_the_paper() {
        assert_eq!(Regime::for_minute_of_day(6 * 60), Regime::Peak);
        assert_eq!(Regime::for_minute_of_day(9 * 60 + 59), Regime::Peak);
        assert_eq!(Regime::for_minute_of_day(10 * 60), Regime::Work);
        assert_eq!(Regime::for_minute_of_day(16 * 60 + 59), Regime::Work);
        assert_eq!(Regime::for_minute_of_day(17 * 60), Regime::Peak);
        assert_eq!(Regime::for_minute_of_day(19 * 60 + 59), Regime::Peak);
        assert_eq!(Regime::for_minute_of_day(20 * 60), Regime::Casual);
        assert_eq!(Regime::for_minute_of_day(0), Regime::Casual);
        assert_eq!(Regime::for_minute_of_day(5 * 60 + 59), Regime::Casual);
        // Wraps around past midnight.
        assert_eq!(Regime::for_minute_of_day(1440 + 8 * 60), Regime::Peak);
    }

    #[test]
    fn weather_factors_are_ordered() {
        assert!(Weather::Clear.speed_factor() > Weather::Rainy.speed_factor());
        assert!(Weather::Rainy.speed_factor() > Weather::Snowy.speed_factor());
        assert!(Weather::Clear.jam_factor() < Weather::Rainy.jam_factor());
        assert!(Weather::Rainy.jam_factor() < Weather::Snowy.jam_factor());
        assert!(Weather::Snowy.convoy_factor() < Weather::Clear.convoy_factor());
        assert_eq!(Weather::default(), Weather::Clear);
        assert_eq!(Weather::Snowy.to_string(), "snowy");
        assert_eq!(Regime::Peak.to_string(), "peak time");
    }

    #[test]
    fn event_rates_reflect_figure5_shape() {
        let rates = EventRates::city_default();
        // Most jams in peak time; most venue churn in casual time.
        assert!(rates.jams(Regime::Peak) > rates.jams(Regime::Work));
        assert!(rates.jams(Regime::Peak) > rates.jams(Regime::Casual));
        assert!(rates.venues(Regime::Casual) > rates.venues(Regime::Work));
        assert!(rates.convoys(Regime::Peak) > rates.convoys(Regime::Work));
        assert!(rates.convoys(Regime::Casual) > rates.convoys(Regime::Work));
    }

    #[test]
    fn presets_are_deterministic_descriptions() {
        let a = ScenarioConfig::small_demo(7);
        let b = ScenarioConfig::small_demo(7);
        assert_eq!(a, b);
        assert_eq!(a.with_taxis(500).num_taxis, 500);
        let day = ScenarioConfig::single_day(1, Weather::Snowy);
        assert_eq!(day.duration, 1_440);
        assert_eq!(day.weather, Weather::Snowy);
        let slice = ScenarioConfig::efficiency_slice(3, 300, 120);
        assert_eq!(slice.num_taxis, 300);
        assert_eq!(slice.duration, 120);
    }
}
