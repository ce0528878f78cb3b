"""Golden output bytes of the CLI on the benchmark loads.

Every output file of a fixed command chain is hashed and compared with a
digest recorded from a known-good build, so a change that claims to keep
the CLI's output byte-identical is held to it.  The ``verification`` block
of ``characterize`` is left out of its digest: it holds round-off sized
error figures, not results.
"""

import hashlib
import json
import re

import pytest

from memsynth import cli

LOADS = {
    "motivating": ["motivating"],
    "rectifier-199": ["rectifier", "--nmax", "199"],
    "rectifier-1100": ["rectifier", "--nmax", "1100"],
    "bridge-199": ["bridge", "--delta", "0.4", "--nmax", "199"],
    "bridge-1100": ["bridge", "--delta", "0.4", "--nmax", "1100"],
    "rectifier-2000": ["rectifier", "--nmax", "2000"],
    "bridge-2000": ["bridge", "--delta", "0.4", "--nmax", "2000"],
}

MEMORY_LABELS = ("memristor", "meminductor", "memcapacitor")


def _run(*argv):
    assert cli.main([str(a) for a in argv]) == 0


#: the last key of a ``characterize`` document, as the CLI writes it
_VERIFICATION = re.compile(r',\n  "verification": \{[^{}]*\}')


def _without_verification(path):
    """The file's own bytes with the ``verification`` block cut out.

    The rest is hashed as written, not parsed and re-dumped, so the digest
    pins the CLI's number spelling too.
    """
    text, cut = _VERIFICATION.subn("", path.read_text(encoding="utf-8"))
    assert cut == 1
    return text.encode("utf-8")


def _prepare(load_args, workdir):
    """Spectrum, decomposition, conditioner and power report of one load."""
    spec = workdir / "spec.json"
    _run("load-model", *load_args, "-o", spec)
    _run("characterize", spec, "-o", workdir / "dec.json")
    _run("compensate", spec, "-o", workdir / "cond.json", "--report", workdir / "report.json")
    return spec


def _memory_labels(doc_path):
    labels = [b["label"] for b in json.loads(doc_path.read_text())["branches"]]
    return [label for label in labels if label in MEMORY_LABELS]


def _digests(paths):
    digests = {}
    for path in sorted(paths):
        data = _without_verification(path) if path.name == "dec.json" else path.read_bytes()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def golden_digests(load_args, workdir):
    """sha256 of every output of the command chain, keyed by file name."""
    _prepare(load_args, workdir)
    for network in ("dec", "cond"):
        doc_path = workdir / f"{network}.json"
        _run("simulate", doc_path, "--periods", "1", "-o", workdir / f"{network}.csv")
        for label in _memory_labels(doc_path):
            _run("hysteresis", doc_path, "--branch", label,
                 "-o", workdir / f"{network}_{label}.csv")
    return _digests(workdir.iterdir())


def more_digests(load_args, workdir):
    """sha256 of the outputs of the flags the chain above leaves at one value.

    ``simulate`` at the default two periods, ``hysteresis --periods 1`` (the
    loop closes by wrapping to sample 0) and ``report --pf-convention both``.  Files the chain above
    pins already are left out.
    """
    spec = _prepare(load_args, workdir)
    pinned = set(workdir.iterdir())
    _run("report", spec, "--pf-convention", "both", "-o", workdir / "powers.json")
    for network in ("dec", "cond"):
        doc_path = workdir / f"{network}.json"
        _run("simulate", doc_path, "-o", workdir / f"{network}_2p.csv")
        for label in _memory_labels(doc_path):
            _run("hysteresis", doc_path, "--branch", label, "--periods", "1",
                 "-o", workdir / f"{network}_{label}_1p.csv")
    return _digests(set(workdir.iterdir()) - pinned)


#: recorded from the direct cos/sin projection build; the n_max 2000 loads
#: from the build that ran one Clenshaw recurrence per series
GOLDEN = {'bridge-1100': {'cond.csv': '8fbd06f34f6f464e68c4969980872d1ab4e48b5d9d943f7be8a00253b53c45d6',
                 'cond.json': '85c12e390dc55c9a793260f638d48e59826ed77fe5420f79ac73b826c46a69c9',
                 'cond_memcapacitor.csv': 'ea9ef594282e1168fec47f7604d33bc8b000eb20db9944199a4eacc2b9e8431d',
                 'cond_memcapacitor_constitutive.csv': '6653553bf496da521c01f20e41de25c96cbdc6e3757541c6a895edd183921f13',
                 'cond_memristor.csv': '5bed86d385137269a639f02a0650d6b468d53f82f4dbdd7710cc36663d741d0e',
                 'cond_memristor_constitutive.csv': 'a471dc8e990470463331920343899576df2546f00c7458cd5b1dd377b4894d32',
                 'dec.csv': '18485b10e28a18405695b1ceb153a82643b160af5f6c39dccebe3470e7ea8dc1',
                 'dec.json': '6541513932f0b8a45449420aeccb8c3c943c3f26dc100ab56f237c754eae59b4',
                 'dec_meminductor.csv': '2a0dce88fa9f179d2cd7392c037ea461d88817daefcee0c43cb7f4b61a461b98',
                 'dec_meminductor_constitutive.csv': 'c1d964f05178bd6fe139d124fc1252d46845741b9d06331092650044587328c2',
                 'dec_memristor.csv': '526d61e457a0697472050a7733daaea3e859d2e75e1237f03df4cde173e844fb',
                 'dec_memristor_constitutive.csv': '05d8b1a25d3094c44dac244b998b1e7d81e6e1d020f12846620f6943251d2839',
                 'report.json': 'e90b5c62c26c418d5bd6ede7c1d55c2b539a60f0317db12f14b031d48d5df0d5',
                 'spec.json': '01681caaa90e8d9bb3db6a9bf09a30441130943478d76384a4bd588c6a8b9840'},
 'bridge-199': {'cond.csv': '8162c19dcec9e3dffae2f0c627a322bf9c9335ca91b31ec556948d5c414ed494',
                'cond.json': 'b4b7b79dfd9638bf70abf8b8b3a088edabe0084a85ba345792c1c3d0d80899c3',
                'cond_memcapacitor.csv': '4ba196b2cab8933adabca7e599bbe5907b4eeec1b82b8ac3f77d2401cdd2a7ce',
                'cond_memcapacitor_constitutive.csv': '31d778279ef7288e753da65ba347a80ae44273d624574626b207952cf4f8e377',
                'cond_memristor.csv': '214712334b1c57a9fe5e5f0c17a7d39b82e8eff241cc62a880f00298c56716ac',
                'cond_memristor_constitutive.csv': '3707a05bdad84b073a48a61390a8fbbc3e7fc969f6b537f0dcf2acffa2a8c24b',
                'dec.csv': 'e29a374e76f423b9e0aa13c4b658620d753080c03e7856fd3ded665d932a4b53',
                'dec.json': '3f66b84dbe8354aafd62f2ce5671030bfa68078cf86be8ba9ca3702f3962d217',
                'dec_meminductor.csv': '80a63567c2d151e1363960c250fdb01bb641a89b5d6ff9fb099bd984654498a9',
                'dec_meminductor_constitutive.csv': '494769c5cc98e280f0769be4fb7d589b2421e6329d2463bc6e4a6d44f99d06a3',
                'dec_memristor.csv': '9cfc5480bbe1b00e30ebc570c15df9d5d39dc50172872a09d5fc3b2afb5e0f8c',
                'dec_memristor_constitutive.csv': '7287085d9de55584e9d2e49431ff37e9d0a9d82aa149064b8429850b7c999b41',
                'report.json': 'eba74d1669ab75ebcc63afbd3cf269c47203409264e6a56d1520bcab2d759702',
                'spec.json': '46207aadc159d145a3b335295fbeb0443c013d90040d90aa55239cf2356dcc37'},
 'bridge-2000': {'cond.csv': '81bb7e9d95c7a4de0e9bb09461d676940006222aec1e6f26180f2e51563386e6',
                 'cond.json': '31668628e4b77e29f550f826fe57a1514f9f2b79fe63ce5e86e5ba4aafd305b4',
                 'cond_memcapacitor.csv': 'bd6774aaceb16d96ef3287b5b41ae3c48707af41da940cc345d6a0e5d3af51a3',
                 'cond_memcapacitor_constitutive.csv': 'b5ac5c246b517b44a24ebb9917642706cee1c4c66ae3a5bcb920215562cb836a',
                 'cond_memristor.csv': 'c1a0518f217d1779c016745b024277443a02e2d55aa4bfd55afedb0d388f76f5',
                 'cond_memristor_constitutive.csv': '343fb15c0866ff83b21485645c6550597d5d8c5aef233ffa9b800b96fea21f98',
                 'dec.csv': '518d03e8377a374a0f86f6f923e4a55dc445c3983354261ea33c52a51b04b1c1',
                 'dec.json': '26c62347a3d33190d283514f6958334ef87bbf56eac530d0fce71348a9cf89b6',
                 'dec_meminductor.csv': '28fc5f298e1be52c50b7b48699cfa93d1a7d06cb54d92785f3131dba03c3f937',
                 'dec_meminductor_constitutive.csv': 'db2f450f9760eea804d89055c7e1a854d6b7bcfe1fc197170d26278a2732b1e1',
                 'dec_memristor.csv': '0706fb74a3ab32b6d1b060386755038d39d21a54c11c92763db7207d920b892e',
                 'dec_memristor_constitutive.csv': '66f0ecbe474379210a703eec3bac746c3daaf6d74b3529228c4dec7434a31560',
                 'report.json': '52e916f3e557b003db240e839c84d26d0166c70fbdf3dfdd4f5ccef12873f22b',
                 'spec.json': '4c9e69801bec4f1134b82db530f64ee8ed873ad142c4735276d2cd93d50e4763'},
 'motivating': {'cond.csv': 'a368b21748788d35525d4754acbd24c9c8760dd4ac11b254197cec5f96192e40',
                'cond.json': 'd4dc816a39f18351d7175587a9cb3073e91ddbda374f6a40e21708a93cd66827',
                'cond_memcapacitor.csv': 'f03ecacae66cfc7e18557cab0356ec5776591eb21d975f4065798194bb14bd95',
                'cond_memcapacitor_constitutive.csv': '82b9dac31db99ad2addbee95091d9f751c6d576558d73d36100f66d7c1bfcbef',
                'dec.csv': '040e2ef8911a0738ac07f5d53a567536edc2206799e4d4a394e9ffd593686896',
                'dec.json': '4ece7758e83d1e3446735ec9d4345231a2d2dd042a48ac0230414c3c79c3ad7c',
                'dec_memcapacitor.csv': 'e94ced42185d37086dc2cadef89b7b9daaa88f3517c140d610ad70d9870750d6',
                'dec_memcapacitor_constitutive.csv': 'a13f52aec3c65a4daa9dce81adb0be3952d93ac53faa554ef5b40394c05410ac',
                'dec_meminductor.csv': '7e5d3d08da3408384b18b1b5667eb2697b6e97a6c43ee9e8934917735eabb643',
                'dec_meminductor_constitutive.csv': '8ab72f156bb885c0c2f06210834eadf0228ad0b8ff69e73b7fb2e525a0cd4a9e',
                'report.json': '6b2ac25c05133e382a6e8e2e58eb3f629116aab7993172ea2357857e9fe0dd37',
                'spec.json': '12cb0ceac5216f606d5b8f0ad7957fa278a10a4ab487614320d6edecbbf52e20'},
 'rectifier-1100': {'cond.csv': 'a019c3f4c1ec8cd895a24575e4c557d5b081c6caa429c200a77427cdf8499df9',
                    'cond.json': '96c61c092f7f22df957be09b5b615b644e3116abeb4230cfbc90f9e160a4da0f',
                    'cond_memcapacitor.csv': '89e9a33ee72e5a0c9614a2d75e27a0df3e8eef452398693682f25d7cb3ba4619',
                    'cond_memcapacitor_constitutive.csv': 'ec72cbcf27f79fefc32e7d12be17e2105f9cd1377c6764ae2d57ad4a7b987cfc',
                    'dec.csv': '4daa69b85ab21dc22edf219129fd0e584cc51e0f3c24f428a60c1d185d60b41a',
                    'dec.json': 'd6e1db94d93e723488c2feeda88185e905ec5084e7496b16033d6913f916e882',
                    'dec_memcapacitor.csv': '9c77f8ca9a5c4a2e7031e3fd206f70a45d56114e52fca631f8dced5497308937',
                    'dec_memcapacitor_constitutive.csv': 'cd46ec250501ed32eee96d9bf70d14f91ae01a59ded53773e0dd4f15b85d4fb2',
                    'report.json': '3c61a723ab8d244a3f70442b303666e5eb37b3e0854788d37566a88a79d3ca1e',
                    'spec.json': 'f43e736e8cd1a296c1109d031013664d95e77f03b4d639c0da3e8cff6dbe1e09'},
 'rectifier-2000': {'cond.csv': '6530d5a64a76180a06ea7104fe67f8a2a7c09295d20114eb527d22497e87588f',
                    'cond.json': '9596c39d0f7cb1172b3b814958b6d6d6ec38c77d04d1bb212e640c52219ae8e0',
                    'cond_memcapacitor.csv': '451a2741ab5097bdb73f0164d69186953c8b3cb48bbb5f6ce11ca1a6d5bc747c',
                    'cond_memcapacitor_constitutive.csv': 'a5074cb00618272de9757a0cd2f4069b97ccbae3bb69476a3dc0991ab2896eee',
                    'dec.csv': '16a0a45197bdc708c9278fe2cca43317326248d7ce15c294651fceec15bd51dc',
                    'dec.json': 'be8c5bfb34b6be5c7967c883e886e6fd460b962872b22743a94f4cd6a7a09265',
                    'dec_memcapacitor.csv': 'c160b2c102961733aab6639519bb46ef07e9e1d427c968f733c6018157134f76',
                    'dec_memcapacitor_constitutive.csv': '417ace7a0265063f303252761c82a1bc5ca4e03c17da2d6464d828846aff2173',
                    'report.json': 'de84e4e403d504c664c2bb587e40f01da76cb16b682c16e1042e039affa67189',
                    'spec.json': 'f95a1be5146f17bdd19e57edc7270adba8af0b654d962a77c3b4eccb420a6817'},
 'rectifier-199': {'cond.csv': 'e2f0400cff486ae947f8d9c6ff8672ab2be70b24ecc7a35e37fa5524344ee905',
                   'cond.json': '40a0225b6780126d582c6126794111f718d44b68a784c43f2026b6bcb6da7c04',
                   'cond_memcapacitor.csv': '49501f2b8745ec7d80c606689c7632b68d63251caf8e616b48dc245575ffd697',
                   'cond_memcapacitor_constitutive.csv': 'a0f55b88335ce78e67c2eaafcf040d3662d7527fa4b6066d17d5b491039b56a3',
                   'dec.csv': '94b26d1f3594ece748931395fd0777f91fbde981db1c1f682d5a6e27f033f331',
                   'dec.json': '3ba66f58fe48a3d08acedf51dbfbbc148e5af98ddd6299a206992bf88cf66ec3',
                   'dec_memcapacitor.csv': '890fc41cdc8b5d4aee8a258c955d4de273b60c9eb6b1c3474277d31c8b0be1df',
                   'dec_memcapacitor_constitutive.csv': '4fdcaddee3affdc05f2897a8f34003c981e781c946ebb9d7c7894e5d95a55ced',
                   'report.json': 'ba566d6e2a1d76480c9fa5038b0cbb5ec888a4aa2eec6393b604fce0e71b39c1',
                   'spec.json': 'd421224132d461383469e93de3e882a7c4e18a025bf67d096a801184cc7f410e'}}


@pytest.mark.parametrize("load", sorted(LOADS))
def test_cli_outputs_match_golden_digests(load, tmp_path):
    assert golden_digests(LOADS[load], tmp_path) == GOLDEN[load]


#: recorded on the build with the per-row CSV loops; the n_max 2000 loads
#: from the build that ran one Clenshaw recurrence per series
GOLDEN_MORE = {'bridge-199': {'cond_2p.csv': '50ea1871a17290e9b3400c8b4fd72a704b062a6c0093fe95b53ec9d19a48bd86',
                'cond_memcapacitor_1p.csv': '77a3ba39933f8d7c2732a596f1feb55c4eb3ef62af88312b0cfbb9a6e7587af3',
                'cond_memcapacitor_1p_constitutive.csv': '31d778279ef7288e753da65ba347a80ae44273d624574626b207952cf4f8e377',
                'cond_memristor_1p.csv': '69fac88cd4982b507c741d12e0a58fe94b6e7f3b3a4ede491c93d97c5bf0b14d',
                'cond_memristor_1p_constitutive.csv': '3707a05bdad84b073a48a61390a8fbbc3e7fc969f6b537f0dcf2acffa2a8c24b',
                'dec_2p.csv': '8680dc0ea0f8a5a888442973ca5c08dd9781fec3f73e08f26376f0acd707e8eb',
                'dec_meminductor_1p.csv': '80a63567c2d151e1363960c250fdb01bb641a89b5d6ff9fb099bd984654498a9',
                'dec_meminductor_1p_constitutive.csv': '494769c5cc98e280f0769be4fb7d589b2421e6329d2463bc6e4a6d44f99d06a3',
                'dec_memristor_1p.csv': 'b782a9e4b0f60ddfb5f2d78f4d903b56ec07c4da9b1aaf566b70973a69954db2',
                'dec_memristor_1p_constitutive.csv': '7287085d9de55584e9d2e49431ff37e9d0a9d82aa149064b8429850b7c999b41',
                'powers.json': '09cd92f676fcdd478de3c63fdef270fd108ef54cfe866b781354080dca6e0b74'},
 'bridge-2000': {'cond_2p.csv': 'a0ffce9dd3d646b387fb9b07c1ab128c550471bcd3cf9c2a8185ed2dc611ea6d',
                 'cond_memcapacitor_1p.csv': '802731b0ffcbfe032cc5fbd3027dca1a9b2536ac2648c9749998335c3010b63f',
                 'cond_memcapacitor_1p_constitutive.csv': 'b5ac5c246b517b44a24ebb9917642706cee1c4c66ae3a5bcb920215562cb836a',
                 'cond_memristor_1p.csv': '088c4ea9175f29152757f0edaa300df7e4466ac829287e4de5e7cc60865c4bce',
                 'cond_memristor_1p_constitutive.csv': '343fb15c0866ff83b21485645c6550597d5d8c5aef233ffa9b800b96fea21f98',
                 'dec_2p.csv': 'd66d43128157f24b084dda64391224c959172105a038c24720bf042934ff0377',
                 'dec_meminductor_1p.csv': '28fc5f298e1be52c50b7b48699cfa93d1a7d06cb54d92785f3131dba03c3f937',
                 'dec_meminductor_1p_constitutive.csv': 'db2f450f9760eea804d89055c7e1a854d6b7bcfe1fc197170d26278a2732b1e1',
                 'dec_memristor_1p.csv': '3b3da60f1da2b3f75be0c1c1714c47f7eadc1d760396b75c4276fa1a7947196b',
                 'dec_memristor_1p_constitutive.csv': '66f0ecbe474379210a703eec3bac746c3daaf6d74b3529228c4dec7434a31560',
                 'powers.json': 'aaa5b13967a398abcc6152b6b86c6b1722a8a10e93da9b2854f2f0832f786470'},
 'motivating': {'cond_2p.csv': '7a717876aae3b02e13cbf83f98296b0eb7c195e8050ebdc6e41a60b6620c1fe4',
                'cond_memcapacitor_1p.csv': '945b78bf54185f9441658eb420daba7317677d828fc113658f235bf4fd502c17',
                'cond_memcapacitor_1p_constitutive.csv': '82b9dac31db99ad2addbee95091d9f751c6d576558d73d36100f66d7c1bfcbef',
                'dec_2p.csv': 'bea45160f8533dc5229ae9c16ab5db4dae338f81232a4034df9e77e17847e28b',
                'dec_memcapacitor_1p.csv': '2e4e29b2564e6c179a59cc9f89ec37a6ad718eeb728abb1740e254a76b5f562b',
                'dec_memcapacitor_1p_constitutive.csv': 'a13f52aec3c65a4daa9dce81adb0be3952d93ac53faa554ef5b40394c05410ac',
                'dec_meminductor_1p.csv': '7e5d3d08da3408384b18b1b5667eb2697b6e97a6c43ee9e8934917735eabb643',
                'dec_meminductor_1p_constitutive.csv': '8ab72f156bb885c0c2f06210834eadf0228ad0b8ff69e73b7fb2e525a0cd4a9e',
                'powers.json': 'ebcc960782ed2df2e296a5d4c3b31c10ecd8af53dc622e39cf411bc72c05f7b4'},
 'rectifier-2000': {'cond_2p.csv': 'd136fb7d6a7081f0f2d3b3e72042adaf957e29518fff9a8bf003bb1115203668',
                    'cond_memcapacitor_1p.csv': '12577a97c88ad0fe64f53923c73f58642c8c5598747890f7964843b4315325d1',
                    'cond_memcapacitor_1p_constitutive.csv': 'a5074cb00618272de9757a0cd2f4069b97ccbae3bb69476a3dc0991ab2896eee',
                    'dec_2p.csv': 'f16320ed5c99a6e92c91520d12c97a8c34b27518b6354c18d9ca730b22eecc29',
                    'dec_memcapacitor_1p.csv': '64b1338efa8816f3a031a77a3d38eae3c7a77d8d884e9d63da1e9381f6a149d2',
                    'dec_memcapacitor_1p_constitutive.csv': '417ace7a0265063f303252761c82a1bc5ca4e03c17da2d6464d828846aff2173',
                    'powers.json': 'a3abe87ca5316b8be62712274ec4535a9667897b3e0845a7110e6b94e12a722e'},
 'rectifier-199': {'cond_2p.csv': '3e8b52c11158c45cecd47a7ca84484c553aa74bf64856eeaca5f60d51726fc6e',
                   'cond_memcapacitor_1p.csv': '9503b7401a252ede01093a47354d199b942158a54afc9ef0bf4f18013ccaef91',
                   'cond_memcapacitor_1p_constitutive.csv': 'a0f55b88335ce78e67c2eaafcf040d3662d7527fa4b6066d17d5b491039b56a3',
                   'dec_2p.csv': '1874028d200722f2cc065d506eac29708b3bbd6920aa365f94823e0092b2aa89',
                   'dec_memcapacitor_1p.csv': 'a5a726f86f9adfd8e9f935665bd4c585ecfde683a9e5aa1e5c527a6289d75bf9',
                   'dec_memcapacitor_1p_constitutive.csv': '4fdcaddee3affdc05f2897a8f34003c981e781c946ebb9d7c7894e5d95a55ced',
                   'powers.json': '432216b0993e54262a4e6b92502a0fa3fe5b02a167a0391f38c8da73fa66f40a'}}


@pytest.mark.parametrize("load", sorted(GOLDEN_MORE))
def test_more_cli_outputs_match_golden_digests(load, tmp_path):
    assert more_digests(LOADS[load], tmp_path) == GOLDEN_MORE[load]
