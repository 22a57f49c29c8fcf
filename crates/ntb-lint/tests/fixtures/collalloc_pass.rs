//! Collectives over a persistent workspace: scratch is allocated when a
//! team is created and released when it is destroyed, never per call.

impl ShmemCtx {
    pub fn team_split(&self, set: ActiveSet) -> Result<Team> {
        let ws = Workspace::alloc(&self.heap, set.size)?;
        let flags = self.calloc_array::<u64>(8)?;
        Ok(Team { set, flags, ws })
    }

    pub fn team_destroy(&self, team: Team) -> Result<()> {
        self.free_array(team.flags)?;
        team.ws.release(&self.heap)
    }

    pub fn team_allreduce(&self, team: &Team, src: &[u64]) -> Result<Vec<u64>> {
        let epoch = team.ws.begin();
        self.exchange(&team.ws, epoch, src)
    }

    pub fn freeze_check(&self) -> bool {
        let free_slots = self.node.freeze_count();
        free_slots == 0
    }
}
