//! OBS001 fixture: an experiment driver that reads the simulated world past
//! its observatory. The two reads below fire (three tokens), the reasoned
//! oracle read is honoured, and the same tokens in the test module are
//! masked. The word world in a comment or "World" in a string is inert.

pub fn fig99(&self) -> usize {
    self.scenario.world().topology().analysis_dcs().count()
}

pub fn map_of(world: &World) -> usize {
    0
}

pub fn oracle(&self) -> usize {
    // ytcdn-lint: allow(OBS001) — the ground-truth oracle this driver compares against
    GroundTruth::new(self.scenario.world()).dc_map().len()
}

#[cfg(test)]
mod tests {
    fn truth(world: &World) -> GroundTruth<'_> {
        GroundTruth::new(world.topology())
    }
}
