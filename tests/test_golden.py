"""sha256 of the stdout of `matrix` and `table`, pinned from the
outputs before the M_BAR builders, the cell counters and the
determinant were merged; and of the path families and the q- and
w-refined DPP sums, pinned before the two path searches and the DPP
statistics counters were merged; of the determinant generating
functions, pinned before the polynomial kernel was packed; of the
DPP stream, pinned before the enumerator stopped sorting the family; of
the `verify --suite all` report, pinned before the polynomial ring lost
its arity parameter; of the text form of the other enumerations,
pinned before it stopped parsing each JSON record again; and of the
JSON form of the ASM and six-vertex enumerations, pinned before the
enumerate command became one table of kinds; and of the verify report
at each --max-n up to 5 and at seed 7, text and JSON, pinned before the
suites' per-order loops were merged; and of the points the ik suite
checks, pinned before the suites became one table of checks.  Any
change to these bytes must be deliberate."""

import hashlib
import json

import pytest

from asmdpp import sixvertex, verify
from asmdpp.cli import main
from asmdpp.dpp import q_sum_of_parts, z_dpp_brute_w
from asmdpp.matrices import FAMILY_NAMES
from asmdpp.polynomial import poly_str

ORDERS = range(1, 7)

# name -> (refined digests for n = 1..6, unrefined digests for n = 1..6)
MATRIX_SHA256 = {
    "M_ASM": (
        (
            "4eea3101953cf4d32eca8910cc4d91c604656cb74730e8480c9dc303288b998c",
            "0581be6b0e93afbb2ff5cde01d1468c033ba3bec708fadb910fd5f39b560828d",
            "5c8fb657f1fb81a25e0323e862a36e755e967c2f3fb99771a31a6fdf11902409",
            "a66e85e33690b4f941e0742a85d0e7cace3111dafce2ff0316a650b700a94475",
            "495c2cacb6b85590055e09234543280c1b7689e007ec2b3c0bf5d38aa6c0466c",
            "f01f8b34594d03ec091b69498ddb1faaac7a76511bc61b95aa94b90ef93a4b24",
        ),
        (
            "8679d7cecfbb3cd917aa5b6ffbe1aa1e620d76857cc7e2c6a01b53b07e046c28",
            "ef5b79115f29d4197b86fd9163df23bdad4ccef0794d98204eb741ee2ebdf5fc",
            "9f2f8f92c714ee975b5e528bd5d9e0b7f1b15daf4e2cb924e2a2a5365f929987",
            "1a7f91ea80b8e2d39367470cf8e693c56920ab7cb208861bfca9a4e609e6e045",
            "b91f1f8b602fd735d21f02e93d991c96b5231e97b1404c9f4fa7f54031ea9da3",
            "c452ddc2543684e36b7a91a0c74701ad4b4fc1e1a508713cbd087be0061e06a1",
        ),
    ),
    "M_DPP": (
        (
            "46b2f7263628c373153fb849cea1956daa355d871eec5b1737b46205a8189042",
            "7a0fde4b44aecd45aeb857a92aef5d6da71dc6fe5fb4256af2bd18a36fa8373c",
            "beac43ac4f7a65603410abb46234e1a0a6451e63ba2b12e0adf90996fd2c3841",
            "162d9ede81b4355cccc415fc1441049d2b15bf6f15f32e8dea216d1d7b72e291",
            "802f908e8c4058bc2ef410d95e927fd14b8a272876d577e7b71b376e1cfddbf8",
            "29c3ce916bb45d776ed7d6b07ce6c58186a214442661c31f5235d6c6f6f33d59",
        ),
        (
            "ff0738ceadb122d5c23afd822a36252272312d9c6c3b9ac1ccecee3c49d4bf9e",
            "8b3e43d1fee618cd08817d9933b282959637b5aa89784a5a9beb005bcf568de0",
            "b6811886bf81446603043b3faf411abef8d06d6821faa5c650352b842f554ed1",
            "2870b6a05269dd8a02646ce8848788af220bb5288056b174cab1745ba6afdd9d",
            "9606c02c69933d38f0a77c043fdcc9589ffa3c4eeec33bb9a8c832d232b1fe5b",
            "71cb7b8e523c1af8d47966ecb5f52962857c7e39965fd406bbe5867fe293c323",
        ),
    ),
    "M_BAR": (
        (
            "25ae2a924d3dfa0b593c7f5775b3709b89b821887fe9d6404daec7fb286b11d0",
            "ed71ee3c2d9ec87e3eb0f0f22ebcc44dacdc24b17d77b21074965a2bcfc7b6e4",
            "06accd3d20584619a40d19c475864c8cdcc15c008a10d1489663ee9520ab9368",
            "10744a9aed691ab3662bb1ff59ca4e236ce0600f1ae78efb9640993e82ea334c",
            "aa299c0a9e784c692f2746ed4633bac8d4cb50fdeb136de7ed81937ed7dd48dc",
            "2bf3b8ba11d5913fa29382d66342c462bc7433c1d5a46e6a9b0d52a0f8d4907c",
        ),
        (
            "b25c6e7a1b09e4a948cb90763ecdfe229526acdfa8f7057e75292f5801dcb8bb",
            "d3597895c3642466a5fdc7e1a12f40894abe776f84d261c9712041a6e36384eb",
            "1883d0d077b48e1a598bd92311b75b4a7d33f30133f73f2b1abfb985195b7cb8",
            "190b08b338d31b1f2c65e32c4f01898f1df58423d7dfc499736304b5e49417cc",
            "e68981ef29450dfc5f2c176b4fc723fa6e603a5de7884e5ab76a16d6758a97d8",
            "6177b015ba5b50e4e0c0fb8e128c4149806db4c43bc8951e9d0f0ed5f7d590ef",
        ),
    ),
    "M_BAR_W": (
        (
            "35ba8b6a8e6f55827de00a7f0e9497a3ad52c0292951a052eca2608e9df33794",
            "f88381c9e9a26b9d1bff4a2f2bbaf49854b360693871073c0a5618eafba348d6",
            "5c5ca4e41dd0846414896e54347c69575be005c3eb6d7dbd54fdc5d4dbbe403b",
            "a0ece62c3417f443402d56924899195783adf7533d9418fe41be641d32f52c3c",
            "3970fdfb0b17ee73e18228bfb421641f7dab9f3337608d4b7e8748b3f5ef4569",
            "d5d009b5ce52509f0419e27e494991166ac39b2e2c86c7bb0f32286f928c2c78",
        ),
        (
            "78f926971eb4de70031257545f7b62f458dd688d551bf28dc1ff06db0f9f2220",
            "2071bb4708822bfd984eb5f399d9db815f86ac44ff75139c1cf1f64e22086cce",
            "be740e917beea6a8c7dbe63af5ede1842f40a0f455adceb117a8c267673ca55b",
            "6f4a35c0573fc28526246ac56389f128cfbb7806948559011263961fc5c2e8b1",
            "34dba7cb069037d9fb898bcb12e8d8125531332d697bd08b49051fb2e2b2c52d",
            "7f59277efe0b857877fef2e41924370b2771c4d78fd99009c8b6e315504e3354",
        ),
    ),
    "M_PRIME": (
        (
            "385e68c66d99ef1c80453eb89807c37c21f7e8ea2978911e63f7d626f50ffe88",
            "b6d959678dd7bb22f854d91250d8d04a8a0f29c8f1951d9605ed74f831b1daaa",
            "c82e316ca061508e4b84702f945af63563f0ba49d3b2f7030f5f32466ff38357",
            "5d525cec981663b102e832f0a5ff46e851890b0fe506079ee6d3e5202f8ee4f9",
            "4339795a1658373af5a408a34ec69bd3464c5bd3297ce94f1afe516206c93a0d",
            "b1180d24757ce2c5e347c3c5ed5bdf269746d8e8b25c482a8e4c699a951bc6f5",
        ),
        (
            "96b05b238fc673202c3c8e6b0416da82f0da7542acd47aad1ebf470a2bd1c115",
            "57b881fc2e8558fb71202ca6895fd3409000f560601920edea8fdfbd5e5a8db3",
            "d491c7c0fbc319eed6b35aba2b511bd2c488178c3f3b51402b2ecf4c930b72fc",
            "ea23e8c48b460306a32c5fe733edbd393ad7c6300a1f595043e8e516019fb38f",
            "49f06957bbd314c9665a15ceffe7363ec3493b9dc7153671411bd957d17650fc",
            "9cf255892e0ffc210f36d7ee70bbaed17f85d772ba4185d3c97573d8b0bae72f",
        ),
    ),
    "M_DPRIME": (
        (
            "44037453492199c569fd229cfab2050ce17735853df937347ca3135446238df8",
            "c32df90f94517577eb1b015b580a5227e86fb94582c0863e5e7f6fe05cd62581",
            "a2e25cc474d9f8aa9299d11f64ce4355023e29c2200d5209889307aeb9746991",
            "175fafd40a1414c4e82a7258b23a9d997baa3f21906f2875af663e1ed3b2a62d",
            "651e7e026273ced73878b27741d79cd4ba5ba57e26808fb0d83512583bbc7152",
            "5d2daa2c54c9fb75bc4b20f9eede4c186b901b302ce150e2d4b58e19d970a73e",
        ),
        (
            "39e3ddc5fe36e0a8fca3dad7e50eb925a6708d4da908b9e0331e3e28d14b7218",
            "82669e021e63e272688d69df5261fa3be7b95b4960b235998281c7bb7861e591",
            "ddcf3d7ccb64c8c1ed8f7c1eb1b5f7c9fd591a6b821207c1b4279519fc7784b9",
            "d828c38ed7bb01b69d7d0f5622924990688c2a2bfc2e82fbc58747a7916a6ba9",
            "c7d372c4bf3cf2580d4c8e8e3716cded6001739240fbb73e62dcd394ebaa8c59",
            "28605e3c144ce1d1a4d93ce754c9239fdbfe45b1c58d6c241e42df8350f2d6fc",
        ),
    ),
    "S": (
        (
            "2c35eeb0a2a0bd26179677ab2a172d42dbf50069f0a84785197a0823d9bb4229",
            "f8de181652aeca6f77835221957b40d0afea71d8e17c1669ce614396f4e1d3cb",
            "4c85371f8c363d6fb5a37e649c63a8b243ce915c3105709d0529e0b21a7465bd",
            "111785c42f4a71b266f101391385fa1d25b21842cfd62cc108cb0cb4671ce01d",
            "2ba39e94e3d22514e5b7293b1a81e518445799f68583002a8d2b1f1b9cbb90f7",
            "210d4def57f0a9171ab65169fdef0c7ea88e9da77e58e411de73434f65e4b076",
        ),
        (
            "844488edb8a0cb2c7e1a57f66a994c9a49b7d09d3c533b7f64ae3c045afc09b8",
            "bc9d0fb41f367c2b1e31eb1ff0ae7bf5f45690e65d3768837c9df71c51d16299",
            "fa5be30730eca1fa0d79f763ba0bd28593f599e41cf468af4c7b9d2486fffa59",
            "e141bc4369c25557e70f6d6c71b218f5c16fb004f962964b4bd4bb1d27a42999",
            "a1ad46c50a31d9eda5d06d60a1ccb4669146d93856608f135e4bcbd6d0ee0934",
            "514c92f6c523ca5a2501293d5a1fb1d818972172974343fb6e52fa9598befc41",
        ),
    ),
    "B": (
        (
            "90c4e202e5504bc497eda3601a11f9141caca7566f726a01ff0e9bd39eab26fb",
            "999d27c3818848236e262c1f3e3dae508865c9951e3e49082a4d867b047aa451",
            "11aba7a91dcf7d00c5657c5a903d76a08f143ee1bb92b0c7be61115e60ce9b84",
            "173b14a3470f4595851cd8a8923fdb83cf4d52455118e3ceb3ec24eed36bfe86",
            "cb5ba864124795a2da8599b7c120634daadfdbb7cf64c5738372375c4a66b40d",
            "57dcb07b7fd39668cc30802a9c16cf84d0a82fe5074059f6e37ba9f1fa0ec703",
        ),
        (
            "c5b7eeb53ab01465bcbccf2ab4f0eabedefc5ff31d6127be411a008f5504cb47",
            "d09ef0d2bf407b7636b11c3380cfc00575f157652bcb7ee09d7f12f1bc1fe5b4",
            "dc0b0d75192d36e54850587c2d09c26a70589c60f7b028753dc528ffe50065c6",
            "6fdf6a8d60875eb3b8f015f730a530cdb2ba99096727fa539998ae5eb8ee45da",
            "c238e4aa1f404048d1d7447c1f3d22f0741b33b356cbbcb2ed13a71691e93ff7",
            "6bc58ac02868a3d8827b3da1b2a4b37a295bc3025eba04aca0c44c6b0d878ae7",
        ),
    ),
    "L": (
        (
            "422a852a73ff197f0acb3d64825bf419d3dd8d7167c1c5e89be2fcd618efeace",
            "e3a9a7e5cbf015703c5907e6e6f30086a267454f516f0cc3515816b13ff1cc44",
            "01ab7883f12bf18fd9d8e9c89569cd13ceaa248e980351b9d8794a591688b7cd",
            "c2dac5f474dd91f6758d1b73a3d57b81c69374a2c174554d493e3006e13b1685",
            "80f69a305b3066a9e955bbb25685070eff2d9df632cddb4c341943699dbc8801",
            "bbd677ec544d188e19b85a3ca8283536947eb9e63d82fde0a932b63e0a55e32c",
        ),
        (
            "cdbe033338fed7b051a16c7e2579899bbb8f43037343863421d6a682ef2a9a45",
            "38f52f393468e810dba325a8b96f03d871d3bef31e243efac77345593a54ce81",
            "5c7a69f710c0145d6042fc596250a186ef98600616df269a1f31967e747ad470",
            "b0e26ccd3c71926d7d2a0ead21bea17278f937a3cf77e36ed7e40e8932137e37",
            "d31bb16181496b4e1c78ea9b9ab4d7fcd14f1baff9ce673c1907cac65658e005",
            "84388c6ebfa0959d6aba0219327082eafb12ac03f12f1f1bf0da59570bbfd1d6",
        ),
    ),
}

TABLE_SHA256 = (
    "1f0cbe4c3dfcc6aa36829d4e87a8afbebbc7b0abba68372e6cf1c4e7dac10c2f",
    "acdf1cb5204de7e05cbd162101a8802fc5b3f64b1922c2db1956433a97bcf200",
    "71380cc3e34d89b8c2cd8456299687fa9d98051d441383dc99aeeab4318d242a",
    "6a09cb2ada4ea632f9c14c137d3a9faf40357c3341db9b9292e58c43982e2033",
    "d2b1a653f70a72185f8020ea52a9e72b4bba32f8fc0b66a403a320dcb7ad5f58",
    "8e75644e1c94d8364cb14768637f221b2c327c2d94edfc82b3ece24166ee3c9c",
)

# stdout of `enumerate --kind nilp --n k`, k = 1..6
NILP_SHA256 = (
    "a2992b5fd7771e125e0ff178de3c4513eb262960915cc52176a969c1b1d94c09",
    "95ebc0247617826eac2ad6908ac55a786c9bd35dd7f0b27f98c75e70bec17590",
    "47175be0dc4c7a462011a4cdc4d2fb4e1ade1f708059c6018a71a8d36ff4e042",
    "3d9e911946678f649736768c2554502438a0922cc5679cff58a528d95de452c7",
    "212fdfbe1b30683c57122ca37ea31bf7ecf051686db7ad0fa738f2ee4504ac12",
    "5dc642ca8decadfe288068c97d28debe589f4b333a45e65e3589480a85964cff",
)

# poly_str(q_sum_of_parts(k)), k = 1..6
Q_SUM_SHA256 = (
    "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    "004e5f10aa7630226cab3899d1b05d9c6b2a1fd6674f6130c6cd86c4d88b534f",
    "2d60d70f47e1f5fc8fcd86023257c0dbd8129e0ee02fad5ecc97cf61151114c1",
    "bd821e3a5653c8f9ecf9e60b561ec2a260ccb52d21eac4ac58dd646d6aa49cc4",
    "611a72a2027cf137c953bf66930c0b2ef671f699868ad948f10cb68f7ee9b7c7",
    "9714b25aa8e6ad4a32e217fd8ff0c8df1a999e278f6f63e7d3e376fb8ab65cf3",
)

# poly_str(z_dpp_brute_w(k)), k = 1..6
Z_DPP_W_SHA256 = (
    "50e721e49c013f00c62cf59f2163542a9d8df02464efeb615d31051b0fddc326",
    "80ab2317d469dd368cddce2dc4ab861542aeaf78f751e350150d2d9c0618d125",
    "a6f9262c73941bd85a18f2b409d30ed97b55e86abb2fcbd0b11f0d6b8a852ea5",
    "3065858a7c33745abb40b93604ba0a91c37ac64753e14841552700182fca3f6e",
    "af91a1fccdb727d10c43754b8627663279c56871a2c467b2c25fe1f815fc79bf",
    "e6c89521a09dadefa174680a9319b1e383297e5f78adb833007c625e5bcd4df0",
)

# `enumerate --kind dpp --n k --format json|text`, k = 1..6, pinned while
# the enumerator still built and sorted the whole family
DPP_ENUM_SHA256 = {
    "json": (
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "8314ef875798521da01db04bf30235d55be06dcd4e3874aeda2f209d213d8bc2",
        "e2caa323511fd994b402529d4749c2941029d0e205938acb41696801dc936b93",
        "60d5795e7033ea4af457a6551a8e7358b8fc23ed92b37f71591d3191a0099b27",
        "585f956d97c039e74e25c217b8f9196869b55950fc5f10ffc26cc3e4a2a859cc",
        "89f961f58c3b366cb2f1313365a1809d8152a15348a59a6f2051b86f2bdbec11",
    ),
    "text": (
        "45fd2f9df187bc411dc80df5c4c4844ac00f4dd69bc69453f1893a5d143433d6",
        "7d72c80d5bea7eb557e91c4b33176ed769dc644c762c7e9298a40db867bae4c9",
        "8308f882c0da0a3174ed387d141562d55d5d0951779e4d7fee4c710244ab86e1",
        "847a820492dcba23c40dea3b9bb5759c04d2d3f9746601f016337389f640dd02",
        "89fb469c839c7ed109b06b1be646db9f9924e2d819ae5b3f1bcceb918ee88535",
        "39028fa74bef8f88dce96399be7605460eac534dec529e755ca2e7f0719d8d87",
    ),
}

# `enumerate --kind K --n k --format text`, k = 1..6, pinned while the text
# form was still made from a second parse of each JSON record
ENUM_TEXT_SHA256 = {
    "asm": (
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        "4ca9be3bf73122996913e7c17e25e2c1290df446c7b76531918887e158e35612",
        "52b45e4c8a0865c55be42ce63437d232d7591c8aacf861af071e1db3472e7865",
        "e061c109a220e7efd506d9b0458312268f9120a94326fc1faa3859c93633dec8",
        "a24eec3febf1de88d37180fb25c122bf1e638c282911156231232ebe64bf25cb",
        "e807d50a38190a86f99f50bf7e32bb655ec89c28df315db96300c8dd0e5e1fe3",
    ),
    "sixvertex": (
        "1b35060c33bd673408add98a1e47d4b5e7916e529207c38100b39af08358444f",
        "bc3d5aa58c5a05b88ddfc5f823ffff65894e171ff7ec6ee8514d7e9b00e6d62d",
        "a469cd748189d6808a59847662c328fa85129cc327f444258fb8e77a1d3f37ee",
        "aa3ce729d68e5b652160cc19ac205594c4d570ab401cbbca90a09e1fb29e244a",
        "0f77e1ad16cc670ebc5e45aa316fd2ffb7dee4abd63dba59beb5016592e573bf",
        "ce03f2a8a58c801ada8c9f3ee6ffb0bd0df0188bcd6dc3ce0826921b91929aba",
    ),
    "nilp": (
        "61d1954b9aba0c9aedb8d1338804e817c7262cfc36da94161dab8e3ed7a3a43a",
        "b529ea1756ad8d49bb799cbbcf428e7f3139a13096cf20e53707896a7826f02d",
        "1efd4bf900478689b696b27e16c0d13afefbfddcb50b337ad9ce5d7800519e36",
        "f7d394d4ef22f6be2aba54369826b72ba2bf52192294aa7ebab22b1cefabc443",
        "5f909630ffeb279c7a8ec4f5df24356ed26a8496c4667f46bec4a7fe922dd847",
        "6df74f7ba27078255261fccd8a92f9952fbccb61208a5fc055492cf51a92fed7",
    ),
}

# `enumerate --kind K --n k --format json`, k = 1..6, pinned before the
# enumerate command became one table of kinds
ENUM_JSON_SHA256 = {
    "asm": (
        "89fab4268dfb17a5b0e4e0c8886fed603bab63412f144371754c36e7a2b6d316",
        "aca1285df28328db8ebdabdb3d38c54b0707a834b80632a0a0c3759b379f1228",
        "397a744f3311998e0d1abd7acac0900393bd80d4f8cbf4455d25c43831363da1",
        "fc0ccf1420ea25cee49f6309f781ca9669f422195a364b0cc51424411ca16c17",
        "7b04fc99f0e392cb0c60d4692cb05fdf5c7af2a82ee2a3117ffa143b4aff74d9",
        "86284c3fbafed1a35747ce9abeb1b43c5bbc935984759c0aa3e2fc028b18b67c",
    ),
    "sixvertex": (
        "a7ea6b44829f761018ebf2ddd721417ad46d259ac1e37bc05416622be8b1eb58",
        "436a48beb395c03b4b084b58c2c7175caaca918c9f6e9ef56ab5c74f0d9702fa",
        "143899e180b67646d7f24c2f30dd215abf84ff8559a1c2865dffca31dfcf5b1a",
        "aae9cfcf410b039cf2dc351298ac068e2823ab098beebfa6919a832fe104e856",
        "6f621e6d93a22eba8615940cff08f06dfd18d5c63d0e0d6cd093e612cb7ffca8",
        "9eefe90507d2a20a2b93085fb7b249da142672d2998a040283bf822186156986",
    ),
}

# `genfunc --method det --n k`, k = 1..12, and `genfunc --method det-w --n k`,
# k = 1..11; k <= 10 pinned before the packed-exponent kernel replaced the
# tuple-keyed one, det k = 11, 12 and det-w k = 11 while the determinant
# was still expanded from M_BAR rather than M_DPRIME
GENFUNC_SHA256 = {
    "det": (
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        "3298522b816123da9c79ada98d2c0121efb13adfc0067e1be974707318c8e11d",
        "f4be28fa9a0f7b88d98f0fe150a56e7e7de81e9152c2da5b9bbe472b7ee25d97",
        "bdcc50ae883f34fa21831553bcdad24b95201a6a0e9544f1419bce84abdd4bd9",
        "da86c4ffc7608f60c38ac5d6b68df05b84b021ebae14430d54bfd96b448eff3a",
        "272559abf6541fb3de9146425aedc669f2f8c0837ea36e634601d68106a251a0",
        "dea14c1a3a3bb06e255d157746c7cba1f81b73ab7c5f27bf3c05a82b676538f5",
        "6302908233fbd26c3cfcd74270958d0d09726479e28a8c9cab1cf2dccfef7c07",
        "1c4bd646638d96223679af93b109ab11b764d0cc69e5600c95becfcfed6b3993",
        "7dc001a0aed80b999d5027acd44d6b4bea0e647e83e6e14d24c054e074f04f83",
        "203d91100da14c525c5e73e163469982b0670a11e04ade957a7fb45a660be2de",
        "c54f644d78848408c1df592d47303325d5f858467d8bc2346c14b319bd87d271",
    ),
    "det-w": (
        "cf945b5236e101dbe0471d5200f28b1ae64f21c1f35bf55fcf40cd0fe42cd8e7",
        "1f619ac938f7364f326dab1fa472545fe4277c3147287ce2ad49ed033f03e8c4",
        "88169fc97710375a81a182c2cc47c4d3e20180e51fb0559009d3b39927790694",
        "385ddfa8dc89466efdeb2910ba372b857b88936d0f4515ebed7f141cfc59b2cb",
        "c7a016e9642f048baa93417cf7cec5a83e092644d1207467ce6abdec42e58ac8",
        "dd74f5afc2ad6f1e3b734b6373079ac5b4cf9dc5e768e5b321cbc35795d540ee",
        "579ef855368e55fa908c75376d87406cef4ca66badbe4606219952c74bdaece9",
        "fa37bd15ecef8f4a3213e71bf99d473b0fee5e2277d2e9ae2a19c60e5e0b01d9",
        "fec8ed33e5728e97f9aa7665523168f47191374ed1620e74673d3f5a02ac39bd",
        "fcce4ac3a8b387961d3ee049ae253868c71c4aca1bc23e2795ba9b2b40a24e57",
        "0ffa237004d508a22928865fcb76a15e024ee06a544a345bce1563da39c92192",
    ),
}

# `verify --suite all` text output, the same for every seed while every
# check passes
VERIFY_ALL_SHA256 = "e35e70dfdbe5b0dc9129d7bcba08e13eedeab7b73a62ebe42958586317ac3e1c"

# `verify --suite all --max-n k` -> (text, JSON without `seed`), k = 1..5,
# pinned before the per-order loops of the suites were merged into one;
# k = 1 and 2 re-pinned when omega.negative_control, an n = 3 check, began
# to honour --max-n (its one line left those reports, and nothing else
# changed)
VERIFY_MAX_N_SHA256 = {
    1: (
        "7c359f44061a09cf9e00d8c2f8c2fb19a768a76ba309050a1a91a8b6ee6dc6cf",
        "53540dd5ad14efeece32e9a47b2205245c4adbf99241eeef1cfa99891755da22",
    ),
    2: (
        "d1b04e6f1b73af9f8c75451dcc4fc9de615681b3501d50dc0fc8d2753c16da79",
        "aa91e7ef78fbaed0a103093264708fb7a70e86fcc337a823c29574c8966772a9",
    ),
    3: (
        "a123c63f0a651c3c760221516345138791abc7f51f0dd677cca1a13b5fffa484",
        "25fb83635149fca4dfad85504e664b3f1c149eeb4852917f84835128ae87ecbb",
    ),
    4: (
        "c70c61657f137ff04f08ec11ce4ef959cbbbf535ec35bedf91d7682a91e17f3c",
        "d56522e166718a67719ea2dd25f9330e36d4b76daa270a76ad0c7d6b7f479129",
    ),
    5: (
        "a8db50bd22d8db0402481079e4c0801668e084fdbd8a5db96bc2970d388d7a8d",
        "5dd9c927ae9b461b2aaca1be2f6c3710330b7caa29c0b2f88b803499f63458d4",
    ),
}

# the full run at --seed 7: (text, JSON without `seed`)
VERIFY_SEED7_SHA256 = (
    "e35e70dfdbe5b0dc9129d7bcba08e13eedeab7b73a62ebe42958586317ac3e1c",
    "85dfecac00dba674084977ab2c1bdcad216eb4c0226f4c9ce4e0bf2deb24f7b3",
)

# a --max-n past every check's order range gives the full run, whose
# digests are the same at every seed
VERIFY_MAX_N_SHA256.update(dict.fromkeys((6, 7, 40), VERIFY_SEED7_SHA256))

# seed -> sha256 of the points the ik suite hands to ik_determinant_rat,
# in call order, one line "q s_1 .. s_n t_1 .. t_n" per point
VERIFY_IK_POINTS_SHA256 = {
    0: "d816bb6ec3707384b43442577a11ba3ef4400d7c5f9ec3a4dc89b1db9d15cfdf",
    7: "d645726e807271ee114f723df19a0aa307b439d7e9f1306b5aec7a1eae3c55ed",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(capsys, *argv):
    assert main(list(argv)) == 0
    return _sha256(capsys.readouterr().out)


def _verify_digests(capsys, *argv):
    """(text digest, digest of the JSON document without its seed)."""
    text = _digest(capsys, "verify", "--suite", "all", *argv)
    assert main(["verify", "--suite", "all", *argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc.pop("seed")
    return text, _sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def test_every_family_is_pinned():
    assert set(MATRIX_SHA256) == set(FAMILY_NAMES)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_matrix_output_is_unchanged(capsys, name):
    refined, unrefined = MATRIX_SHA256[name]
    for n in ORDERS:
        assert _digest(capsys, "matrix", "--name", name, "--n", str(n)) == refined[n - 1], n
        assert (
            _digest(capsys, "matrix", "--name", name, "--n", str(n), "--unrefined")
            == unrefined[n - 1]
        ), n


def test_table_output_is_unchanged(capsys):
    for n in ORDERS:
        assert _digest(capsys, "table", "--n", str(n)) == TABLE_SHA256[n - 1], n


def test_nilp_enumeration_is_unchanged(capsys):
    for n in ORDERS:
        assert _digest(capsys, "enumerate", "--kind", "nilp", "--n", str(n)) == NILP_SHA256[n - 1], n


@pytest.mark.parametrize("fmt", sorted(DPP_ENUM_SHA256))
def test_dpp_enumeration_is_unchanged(capsys, fmt):
    for n in ORDERS:
        assert (
            _digest(capsys, "enumerate", "--kind", "dpp", "--n", str(n), "--format", fmt)
            == DPP_ENUM_SHA256[fmt][n - 1]
        ), n


def test_dpp_q_and_w_sums_are_unchanged():
    for n in ORDERS:
        assert _sha256(poly_str(q_sum_of_parts(n))) == Q_SUM_SHA256[n - 1], n
        assert _sha256(poly_str(z_dpp_brute_w(n))) == Z_DPP_W_SHA256[n - 1], n


@pytest.mark.parametrize("kind", sorted(ENUM_TEXT_SHA256))
def test_enumeration_text_is_unchanged(capsys, kind):
    for n in ORDERS:
        assert (
            _digest(capsys, "enumerate", "--kind", kind, "--n", str(n), "--format", "text")
            == ENUM_TEXT_SHA256[kind][n - 1]
        ), n


@pytest.mark.parametrize("kind", sorted(ENUM_JSON_SHA256))
def test_enumeration_json_is_unchanged(capsys, kind):
    for n in ORDERS:
        assert (
            _digest(capsys, "enumerate", "--kind", kind, "--n", str(n))
            == ENUM_JSON_SHA256[kind][n - 1]
        ), n


@pytest.mark.parametrize("method", sorted(GENFUNC_SHA256))
def test_genfunc_det_output_is_unchanged(capsys, method):
    for n, pinned in enumerate(GENFUNC_SHA256[method], start=1):
        assert _digest(capsys, "genfunc", "--method", method, "--n", str(n)) == pinned, n


def test_verify_all_output_is_unchanged(capsys):
    assert _digest(capsys, "verify", "--suite", "all") == VERIFY_ALL_SHA256


@pytest.mark.parametrize("max_n", sorted(VERIFY_MAX_N_SHA256))
def test_verify_all_output_is_unchanged_at_each_max_n(capsys, max_n):
    assert _verify_digests(capsys, "--max-n", str(max_n)) == VERIFY_MAX_N_SHA256[max_n]


def test_verify_refuses_max_n_below_1(capsys, monkeypatch):
    """--max-n 0, a negative --max-n and ASMDPP_MAX_N=0 exit 2 before any
    check runs, where they once ran the n = 1 checks."""
    for argv in (["--max-n", "0"], ["--max-n", "-1"]):
        assert main(["verify", "--suite", "all", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "error: order must be at least 1" in captured.err, argv
    monkeypatch.setenv("ASMDPP_MAX_N", "0")
    assert main(["verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: order must be at least 1" in captured.err


def test_verify_all_output_is_unchanged_at_seed_7(capsys):
    assert _verify_digests(capsys, "--seed", "7") == VERIFY_SEED7_SHA256


@pytest.mark.parametrize("seed", sorted(VERIFY_IK_POINTS_SHA256))
def test_verify_ik_points_are_unchanged(monkeypatch, seed):
    # verify's text is the same for any points, so only this sees a
    # change to the draws
    lines = []
    ik_determinant_rat = sixvertex.ik_determinant_rat

    def recording(pt):
        lines.append(" ".join(map(str, (pt.q, *pt.s, *pt.t))))
        return ik_determinant_rat(pt)

    monkeypatch.setattr(sixvertex, "ik_determinant_rat", recording)
    assert verify.run_suite("ik", None, seed).passed
    assert len(lines) == 60
    assert _sha256("\n".join(lines)) == VERIFY_IK_POINTS_SHA256[seed]
