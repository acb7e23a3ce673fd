//! Seeded `env-knob-registry` violations. Lexed as text by the fixture
//! tests, never compiled. The fixture test feeds this in under a
//! non-registry production path, so the `var` read below is both outside
//! the registry modules and an undocumented knob.

fn rogue_read() -> String {
    std::env::var("CENTAUR_FIXTURE_ROGUE").unwrap_or_default()
}
