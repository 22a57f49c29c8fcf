//! Seeded collective-alloc violations: collectives that take symmetric
//! scratch per call, paying a hidden barrier for every allocation and
//! every free.

impl ShmemCtx {
    pub fn allreduce(&self, src: &[u64]) -> Result<Vec<u64>> {
        let scratch: TypedSym<u64> = self.malloc_array(self.num_pes() * src.len())?;
        self.fcollect(&scratch, src)?;
        let out = self.read_local_slice(&scratch, 0, src.len())?;
        self.free_array(scratch)?;
        Ok(out)
    }

    pub fn broadcast_tree(&self, sym: &TypedSym<u64>, root: usize) -> Result<()> {
        let sig = self.calloc_array::<u64>(1)?;
        self.tree_push(sym, &sig, root)
    }
}
