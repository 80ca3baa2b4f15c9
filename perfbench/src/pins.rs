//! Cell digests pinned for the default seed (`--seed 0`). Regenerate
//! with `perfbench --print-pins` after a change that is meant to move
//! simulation results.

/// `(workload, config, digest)` for every cell of both simulator grids.
const PINS: [(&str, &str, u64); 30] = [
    ("BC", "radix", 0x426a7708cacaede1),
    ("BC", "victima", 0xd96afdbca833a718),
    ("BFS", "radix", 0x318575689c02a5f0),
    ("BFS", "victima", 0x20bfa068a07c4d07),
    ("CC", "radix", 0x6f185b36fc5cc60c),
    ("CC", "victima", 0xff84a146cd056ec8),
    ("DLRM", "radix", 0xd80acb13c038e351),
    ("DLRM", "victima", 0xe357377a9d348c49),
    ("GEN", "radix", 0x19ab08eaa26c00ca),
    ("GEN", "victima", 0x85f3c39bf7f91854),
    ("GC", "radix", 0x97fbc9320f673060),
    ("GC", "victima", 0x4ccead8eeedc1ec1),
    ("PR", "radix", 0x9d192e6ce2aaca5e),
    ("PR", "victima", 0x591dc25b3524341a),
    ("RND", "radix", 0x2880be8d71913d84),
    ("RND", "victima", 0xa7770d865ca8ed0f),
    ("SSSP", "radix", 0x62fe7b4b671ad22b),
    ("SSSP", "victima", 0x4c6a53256303cd37),
    ("TC", "radix", 0x5205e78663f49ce2),
    ("TC", "victima", 0x304e96b78e6f6024),
    ("XS", "radix", 0x4a4b588d9278039a),
    ("XS", "victima", 0xe694d2413ed4d8cd),
    ("BC", "victima_virt", 0x2ce17db6806bfd55),
    ("BC", "nested_paging", 0x47ca690a04019c16),
    ("RND", "victima_virt", 0x7fd8be6f4642dd82),
    ("RND", "nested_paging", 0x76443e7a09613e52),
    ("XS", "victima_virt", 0xb2f5008d2de2cbe2),
    ("XS", "nested_paging", 0xf70168509c3c0722),
    ("GEN", "victima_virt", 0x795b6f0f5d882c82),
    ("GEN", "nested_paging", 0x4220816acb0a41bb),
];

/// The pinned digest of one cell.
pub fn digest_for(workload: &str, config: &str) -> Option<u64> {
    PINS.iter().find(|(w, c, _)| *w == workload && *c == config).map(|&(_, _, d)| d)
}
